// Package cist implements the C-IST baseline: the concurrent
// interpolation search tree of Brown, Prokopec & Alistarh
// ("Non-Blocking Interpolation Search Trees with Doubly-Logarithmic
// Running Time", PPoPP 2020), the search-optimized comparator in the
// paper's §6 evaluation.
//
// An ideal IST over n keys has fan-out √n at the root, √√n at the next
// level, and so on — doubly-logarithmic depth — and descends by
// interpolating the key's position among a node's separators, which
// takes O(1) expected probes on smooth key distributions. The structure
// cannot be maintained incrementally, so updates accumulate into small
// copy-on-write leaves and every inner node counts the updates in its
// subtree; when a subtree absorbs initial-size/4 updates it is frozen,
// collected, and rebuilt ideally. This rebuild-everything discipline is
// exactly why the paper's update-heavy workloads punish the C-IST
// ("the C-IST must completely rebuild the tree after n/4 updates").
//
// Concurrency follows the original's freeze-then-rebuild protocol in
// simplified form: inner nodes are immutable except for their child
// slots (atomic pointers); updates replace a leaf with a copy via one
// CAS; a rebuilder wraps every slot of the doomed subtree in a frozen
// marker (stopping all updates inside), collects the now-immutable
// contents, builds the ideal replacement, and swings the parent slot.
// Readers traverse frozen wrappers transparently and never block or
// retry. The one substitution from the original: rebuilds here are
// performed by the triggering thread alone, where the C-IST recruits
// helper threads for a collaborative rebuild — the total rebuild work
// (the source of the update-heavy slowdown) is identical, only its
// distribution across threads differs.
package cist

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// leafCap bounds copy-on-write leaf size: large enough to amortize CAS
// churn, small enough that leaf scans stay cheap.
const leafCap = 8

// minThreshold floors the rebuild trigger so tiny subtrees don't
// rebuild on every other update.
const minThreshold = 16

type nodeKind uint8

const (
	kLeaf nodeKind = iota
	kInner
	kFrozen
)

// istNode is a leaf, an inner node, or a frozen marker wrapping one of
// the former (a struct rather than three types so child slots can be a
// single atomic.Pointer type).
type istNode struct {
	kind nodeKind

	// Leaf: sorted parallel key/value arrays, immutable after creation.
	keys []uint64
	vals []uint64

	// Inner: seps are immutable separator keys; children[i] covers keys
	// in [seps[i-1], seps[i]). Child slots are the only mutable cells.
	seps      []uint64
	children  []atomic.Pointer[istNode]
	updates   atomic.Int64
	threshold int64
	rebuildMu sync.Mutex

	// Frozen: the wrapped node (readers look through; writers restart).
	wrapped *istNode
}

// Tree is a concurrent interpolation search tree.
type Tree struct {
	root     atomic.Pointer[istNode]
	rebuilds atomic.Uint64
}

// New returns an empty tree.
func New() *Tree {
	t := &Tree{}
	t.root.Store(&istNode{kind: kLeaf})
	return t
}

// Rebuilds reports how many subtree rebuilds have completed (test and
// benchmark instrumentation).
func (t *Tree) Rebuilds() uint64 { return t.rebuilds.Load() }

// locate returns the child index for key: an interpolation guess into
// the separator array corrected by a local linear scan — O(1) expected
// probes for smooth distributions, the IST's defining trick.
func locate(seps []uint64, key uint64) int {
	n := len(seps)
	if n == 0 || key < seps[0] {
		return 0
	}
	last := seps[n-1]
	if key >= last {
		return n
	}
	lo := seps[0]
	// Interpolate key's rank within [lo, last). n is small (√subtree),
	// so float math per level is cheap relative to a cache miss.
	i := int(float64(key-lo) / float64(last-lo) * float64(n-1))
	if i > n-1 {
		i = n - 1
	}
	for i > 0 && key < seps[i] {
		i--
	}
	for i < n && key >= seps[i] {
		i++
	}
	return i
}

// leafFind returns key's index in a leaf, or -1.
func leafFind(n *istNode, key uint64) int {
	for i, k := range n.keys {
		if k == key {
			return i
		}
		if k > key {
			break
		}
	}
	return -1
}

// Find returns the value associated with key, if present. Finds are
// wait-free: they look through frozen markers and never restart.
func (t *Tree) Find(key uint64) (uint64, bool) {
	n := t.root.Load()
	for {
		switch n.kind {
		case kFrozen:
			n = n.wrapped
		case kInner:
			n = n.children[locate(n.seps, key)].Load()
		default:
			if i := leafFind(n, key); i >= 0 {
				return n.vals[i], true
			}
			return 0, false
		}
	}
}

// pathEntry records one inner node of a descent, for counter bumps and
// rebuild triggering.
type pathEntry struct {
	node *istNode
	slot int
}

// descend walks to the leaf responsible for key, recording the inner
// path. It returns ok=false (caller restarts) if the update path is
// blocked by an in-progress rebuild's frozen marker.
func (t *Tree) descend(key uint64, path *[]pathEntry) (*istNode, bool) {
	*path = (*path)[:0]
	n := t.root.Load()
	for n.kind == kInner {
		slot := locate(n.seps, key)
		*path = append(*path, pathEntry{n, slot})
		c := n.children[slot].Load()
		if c.kind == kFrozen {
			return nil, false
		}
		n = c
	}
	if n.kind == kFrozen {
		return nil, false
	}
	return n, true
}

// replaceLeaf installs repl where leaf currently sits (the last path
// entry's slot, or the root).
func (t *Tree) replaceLeaf(path []pathEntry, leaf, repl *istNode) bool {
	if len(path) == 0 {
		return t.root.CompareAndSwap(leaf, repl)
	}
	tail := path[len(path)-1]
	return tail.node.children[tail.slot].CompareAndSwap(leaf, repl)
}

// afterUpdate bumps every path node's update counter and rebuilds the
// topmost subtree whose counter crossed its threshold.
func (t *Tree) afterUpdate(path []pathEntry) {
	for _, e := range path {
		e.node.updates.Add(1)
	}
	for i, e := range path {
		if e.node.updates.Load() > e.node.threshold {
			if i == 0 {
				t.rebuild(e.node, nil, 0)
			} else {
				t.rebuild(e.node, path[i-1].node, path[i-1].slot)
			}
			return
		}
	}
}

// Insert adds key→val if key is absent and reports whether it inserted;
// if key is present it returns the existing value and false.
func (t *Tree) Insert(key, val uint64) (uint64, bool) {
	var path []pathEntry
	for {
		leaf, ok := t.descend(key, &path)
		if !ok {
			runtime.Gosched() // a rebuild is in flight; wait it out
			continue
		}
		if i := leafFind(leaf, key); i >= 0 {
			return leaf.vals[i], false
		}
		keys := make([]uint64, 0, len(leaf.keys)+1)
		vals := make([]uint64, 0, len(leaf.vals)+1)
		pos := 0
		for pos < len(leaf.keys) && leaf.keys[pos] < key {
			pos++
		}
		keys = append(append(append(keys, leaf.keys[:pos]...), key), leaf.keys[pos:]...)
		vals = append(append(append(vals, leaf.vals[:pos]...), val), leaf.vals[pos:]...)
		var repl *istNode
		if len(keys) > leafCap {
			repl = build(keys, vals)
		} else {
			repl = &istNode{kind: kLeaf, keys: keys, vals: vals}
		}
		if t.replaceLeaf(path, leaf, repl) {
			t.afterUpdate(path)
			return 0, true
		}
	}
}

// Delete removes key and returns its value, if present.
func (t *Tree) Delete(key uint64) (uint64, bool) {
	var path []pathEntry
	for {
		leaf, ok := t.descend(key, &path)
		if !ok {
			runtime.Gosched()
			continue
		}
		i := leafFind(leaf, key)
		if i < 0 {
			return 0, false
		}
		old := leaf.vals[i]
		keys := make([]uint64, 0, len(leaf.keys)-1)
		vals := make([]uint64, 0, len(leaf.vals)-1)
		keys = append(append(keys, leaf.keys[:i]...), leaf.keys[i+1:]...)
		vals = append(append(vals, leaf.vals[:i]...), leaf.vals[i+1:]...)
		repl := &istNode{kind: kLeaf, keys: keys, vals: vals}
		if t.replaceLeaf(path, leaf, repl) {
			t.afterUpdate(path)
			return old, true
		}
	}
}

// build constructs an ideal IST from sorted parallel key/value slices:
// fan-out √n per level, separators at chunk boundaries.
func build(keys, vals []uint64) *istNode {
	n := len(keys)
	if n <= leafCap {
		return &istNode{kind: kLeaf, keys: keys, vals: vals}
	}
	d := int(math.Ceil(math.Sqrt(float64(n))))
	if d < 2 {
		d = 2
	}
	node := &istNode{
		kind:      kInner,
		seps:      make([]uint64, 0, d-1),
		children:  make([]atomic.Pointer[istNode], d),
		threshold: int64(n / 4),
	}
	if node.threshold < minThreshold {
		node.threshold = minThreshold
	}
	base, rem := n/d, n%d
	start := 0
	for i := 0; i < d; i++ {
		size := base
		if i < rem {
			size++
		}
		end := start + size
		if i > 0 {
			node.seps = append(node.seps, keys[start])
		}
		node.children[i].Store(build(keys[start:end:end], vals[start:end:end]))
		start = end
	}
	return node
}

// rebuild freezes n's subtree, collects it, and swings an ideal
// replacement into the parent slot (or the root). Concurrent rebuilds
// of the same node are excluded by its mutex; a failed final CAS means
// an enclosing rebuild got there first and already owns the data.
func (t *Tree) rebuild(n *istNode, parent *istNode, slot int) {
	if !n.rebuildMu.TryLock() {
		return // someone is already rebuilding this node
	}
	defer n.rebuildMu.Unlock()
	freeze(n)
	var keys, vals []uint64
	collect(n, &keys, &vals)
	repl := build(keys, vals)
	if parent == nil {
		if t.root.CompareAndSwap(n, repl) {
			t.rebuilds.Add(1)
		}
		return
	}
	if parent.children[slot].CompareAndSwap(n, repl) {
		t.rebuilds.Add(1)
	}
}

// freeze wraps every child slot in n's subtree in a frozen marker.
// After freeze returns no update can modify the subtree, so its
// contents are stable for collection. Races with in-flight leaf CASes
// are resolved by the CAS loop; slots already frozen by a nested
// rebuild are read through (that rebuild's final CAS will now fail
// harmlessly).
func freeze(n *istNode) {
	if n.kind != kInner {
		return
	}
	for i := range n.children {
		for {
			c := n.children[i].Load()
			if c.kind == kFrozen {
				freeze(c.wrapped)
				break
			}
			if n.children[i].CompareAndSwap(c, &istNode{kind: kFrozen, wrapped: c}) {
				freeze(c)
				break
			}
		}
	}
}

// collect appends the subtree's contents in ascending key order,
// reading through frozen markers.
func collect(n *istNode, keys, vals *[]uint64) {
	switch n.kind {
	case kFrozen:
		collect(n.wrapped, keys, vals)
	case kInner:
		for i := range n.children {
			collect(n.children[i].Load(), keys, vals)
		}
	default:
		*keys = append(*keys, n.keys...)
		*vals = append(*vals, n.vals...)
	}
}

// Scan calls fn for every key/value pair in ascending key order
// (quiescent use).
func (t *Tree) Scan(fn func(key, val uint64)) {
	var keys, vals []uint64
	collect(t.root.Load(), &keys, &vals)
	for i, k := range keys {
		fn(k, vals[i])
	}
}

// KeySum returns the sum (mod 2^64) of present keys.
func (t *Tree) KeySum() uint64 {
	var s uint64
	t.Scan(func(k, _ uint64) { s += k })
	return s
}

// Len counts present keys (quiescent use).
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ uint64) { n++ })
	return n
}

// Depth returns the maximum node depth (root = 1), a doubly-logarithmic
// quantity in an ideal IST (test instrumentation, quiescent use).
func (t *Tree) Depth() int {
	var walk func(n *istNode) int
	walk = func(n *istNode) int {
		switch n.kind {
		case kFrozen:
			return walk(n.wrapped)
		case kInner:
			max := 0
			for i := range n.children {
				if d := walk(n.children[i].Load()); d > max {
					max = d
				}
			}
			return 1 + max
		default:
			return 1
		}
	}
	return walk(t.root.Load())
}
