package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abalg"
	"repro/internal/rq"
)

// Tree is an OCC-ABtree or (with WithElimination) an Elim-ABtree.
//
// All operations go through a Thread handle (see NewThread); the handle
// owns the per-thread MCS queue nodes, mirroring the paper's C++ threads.
// A Tree is safe for use by any number of Threads concurrently.
type Tree struct {
	// entry is the sentinel: an internal node with no keys and one child
	// pointer (the root). It is never removed or replaced (§3).
	entry *node

	a, b int  // min/max node size
	elim bool // publishing elimination enabled (Elim-ABtree)

	// Elimination counters (Elim-ABtree only), by abalg.OpKind:
	// operations that returned via publishing elimination instead of
	// modifying the tree. They expose the mechanism directly, independent
	// of core count.
	elims [3]atomic.Uint64

	// rqp coordinates linearizable range queries (rqsnap.go): the scan
	// timestamp clock (private by default, shared under WithRQClock),
	// the active-scan registry, and version-chain stats.
	rqp     *rq.Provider
	rqClock *rq.Clock // nil = private clock
}

// ElimStats reports how many inserts, deletes and upserts were eliminated
// against a published record rather than executed against the tree.
func (t *Tree) ElimStats() (inserts, deletes, upserts uint64) {
	return t.elims[abalg.OpInsert].Load(), t.elims[abalg.OpDelete].Load(), t.elims[abalg.OpUpsert].Load()
}

// Option configures a Tree.
type Option func(*Tree)

// WithElimination enables publishing elimination, turning the OCC-ABtree
// into the Elim-ABtree.
func WithElimination() Option { return func(t *Tree) { t.elim = true } }

// WithDegree sets the (a,b) node-size bounds. Requires 2 <= a <= b/2 and
// 4 <= b <= 11 (the paper uses a=2, b=11, which is also the capacity the
// node layouts are sized for).
func WithDegree(a, b int) Option { return func(t *Tree) { t.a, t.b = a, b } }

// WithRQClock couples the tree's range-query subsystem to c instead of a
// private clock. Trees sharing one clock share one scan-linearization
// point: a scan that draws a timestamp from the shared clock (see
// RangeSnapshotAt) observes a single atomic snapshot across all of
// them. internal/shard uses this for cross-shard linearizable scans.
func WithRQClock(c *rq.Clock) Option { return func(t *Tree) { t.rqClock = c } }

// New returns an empty tree.
func New(opts ...Option) *Tree {
	t := &Tree{a: DefaultMinSize, b: DefaultMaxSize}
	for _, o := range opts {
		o(t)
	}
	if t.b < 4 || t.b > maxCap || t.a < 2 || t.a > t.b/2 {
		panic(fmt.Sprintf("core: invalid degree (a=%d, b=%d): need 2 <= a <= b/2 and 4 <= b <= %d", t.a, t.b, maxCap))
	}
	if t.rqClock == nil {
		t.rqClock = rq.NewClock()
	}
	t.rqp = rq.NewProviderWith(t.rqClock)
	root := t.newLeaf(nil, 1)
	t.entry = newInternal(abalg.InternalKind, nil, []*node{root}, 1)
	return t
}

// Elim reports whether publishing elimination is enabled.
func (t *Tree) Elim() bool { return t.elim }

// RQClock returns the linearization clock the tree's range-query
// subsystem runs on (shared with other trees under WithRQClock).
func (t *Tree) RQClock() *rq.Clock { return t.rqp.Clock() }

// root returns the entry's only child.
func (t *Tree) root() *node { return t.entry.inner().ptrs[0].Load() }

// MinSize returns a, MaxSize returns b.
func (t *Tree) MinSize() int { return t.a }

// MaxSize returns the maximum node size b.
func (t *Tree) MaxSize() int { return t.b }

// search descends from the entry toward key, stopping at a leaf or at
// target (whichever comes first), taking no locks (paper Figure 2).
func (t *Tree) search(key uint64, target *node) abalg.Path[*node] {
	var gp, p *node
	pIdx := 0
	n := t.entry
	nIdx := 0
	for !n.isLeaf() {
		if n == target {
			break
		}
		gp, p, pIdx = p, n, nIdx
		nIdx = 0
		rk := n.routingKeys()
		for nIdx < rk && key >= n.keys[nIdx].Load() {
			nIdx++
		}
		n = n.inner().ptrs[nIdx].Load()
	}
	return abalg.Path[*node]{GP: gp, P: p, PIdx: pIdx, N: n, NIdx: nIdx}
}

// leafSearch obtains a consistent snapshot answer for key in leaf l using
// the double-collect pattern (paper Figure 2, searchLeaf): read the
// version, scan, re-read the version; retry if the leaf changed or was
// being modified. It never takes a lock — find operations never restart
// from the root in the OCC-ABtree.
func (t *Tree) leafSearch(n *node, key uint64) (uint64, bool) {
	l := n.leaf()
	spins := 0
	for {
		v1 := l.ver.Load()
		if v1&1 == 1 {
			abalg.SpinPause(&spins)
			continue
		}
		val, found := l.valAt(t.slotOf(l, key))
		if l.ver.Load() == v1 {
			return val, found
		}
		abalg.SpinPause(&spins)
	}
}

// slotOf returns key's slot in leaf l, or -1 if key is absent. A key in
// the tombstone (node.go) is absent. Lock-free callers validate the pass
// against l's version.
func (t *Tree) slotOf(l *leaf, key uint64) int {
	for i := 0; i < t.b; i++ {
		if l.keys[i].Load() == key {
			if i == t.tomb(l) {
				return -1
			}
			return i
		}
	}
	return -1
}

// valAt returns the value in slot i of l, and false if i < 0 (slotOf's
// "absent").
func (l *leaf) valAt(i int) (uint64, bool) {
	if i < 0 {
		return 0, false
	}
	return l.vals[i].Load(), true
}

// leafScanOnce performs the Elim-ABtree's single optimistic scan (§4.1):
// one pass over the leaf, with consistent reporting whether the leaf was
// quiescent and unchanged across the scan.
func (t *Tree) leafScanOnce(n *node, key uint64) (val uint64, found, consistent bool) {
	l := n.leaf()
	v1 := l.ver.Load()
	if v1&1 == 1 {
		return 0, false, false
	}
	val, found = l.valAt(t.slotOf(l, key))
	return val, found, l.ver.Load() == v1
}
