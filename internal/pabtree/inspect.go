package pabtree

import (
	"errors"
	"fmt"
	"math"
)

// Quiescent inspection utilities (no synchronization; tests and
// post-benchmark accounting only).

// Scan calls fn for every key-value pair in ascending key order.
func (t *Tree) Scan(fn func(k, v uint64)) {
	t.scan(t.loadChild(t.entryOff, 0), fn)
}

func (t *Tree) scan(off uint64, fn func(k, v uint64)) {
	if t.isLeaf(off) {
		items := t.gatherLeaf(off)
		sortKVs(items)
		for _, it := range items {
			fn(it.k, it.v)
		}
		return
	}
	for i := 0; i < nchildrenOf(t.meta(off)); i++ {
		t.scan(t.loadChild(off, i), fn)
	}
}

// Len returns the number of keys.
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ uint64) { n++ })
	return n
}

// KeySum returns the wrapping sum of all keys (the paper's §6 validation).
func (t *Tree) KeySum() uint64 {
	var sum uint64
	t.Scan(func(k, _ uint64) { sum += k })
	return sum
}

// Height returns the number of levels below the entry node.
func (t *Tree) Height() int {
	h := 0
	for off := t.loadChild(t.entryOff, 0); ; off = t.loadChild(off, 0) {
		h++
		if t.isLeaf(off) {
			return h
		}
	}
}

// Validate checks the Theorem 5.4 structural invariants on the volatile
// view of a quiescent tree (after Recover, volatile == persisted, so this
// validates the recovered image too).
func (t *Tree) Validate() error {
	root := t.loadChild(t.entryOff, 0)
	leafDepth := -1
	seen := make(map[uint64]bool)
	var walk func(off uint64, lo, hi uint64, depth int, isRoot bool) error
	walk = func(off uint64, lo, hi uint64, depth int, isRoot bool) error {
		if off == 0 {
			return errors.New("null child pointer")
		}
		v := t.vn(off)
		if v.marked.Load() {
			return fmt.Errorf("reachable node at depth %d is marked", depth)
		}
		meta := t.meta(off)
		if kindOf(meta) == taggedKind {
			return fmt.Errorf("tagged node present at quiescence (depth %d)", depth)
		}
		if kindOf(meta) == leafKind {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			count := 0
			for i := 0; i < t.b; i++ {
				k := t.leafKey(off, i)
				if k == emptyKey {
					continue
				}
				count++
				if k < lo || k >= hi {
					return fmt.Errorf("leaf key %d outside [%d, %d)", k, lo, hi)
				}
				if seen[k] {
					return fmt.Errorf("duplicate key %d", k)
				}
				seen[k] = true
			}
			if int64(count) != v.size.Load() {
				return fmt.Errorf("leaf size %d but %d non-empty keys", v.size.Load(), count)
			}
			if !isRoot && (count < t.a || count > t.b) {
				return fmt.Errorf("leaf size %d outside [%d, %d]", count, t.a, t.b)
			}
			return nil
		}
		nc := nchildrenOf(meta)
		if !isRoot && nc < t.a {
			return fmt.Errorf("internal node with %d children (< a=%d)", nc, t.a)
		}
		if nc < 2 || nc > t.b {
			return fmt.Errorf("internal node with %d children outside [2, %d]", nc, t.b)
		}
		prev := lo
		for i := 0; i < nc-1; i++ {
			k := t.routingKey(off, i)
			if k < prev || k >= hi {
				return fmt.Errorf("routing key %d not in [%d, %d)", k, prev, hi)
			}
			if i > 0 && k <= t.routingKey(off, i-1) {
				return fmt.Errorf("routing keys not strictly increasing at %d", i)
			}
			prev = k
		}
		childLo := lo
		for i := 0; i < nc; i++ {
			childHi := hi
			if i < nc-1 {
				childHi = t.routingKey(off, i)
			}
			if err := walk(t.loadChild(off, i), childLo, childHi, depth+1, false); err != nil {
				return err
			}
			childLo = childHi
		}
		return nil
	}
	return walk(root, 1, math.MaxUint64, 0, true)
}

// ValidatePersisted verifies that every reachable node's persisted image
// matches its volatile image for the durable fields (keys, values for
// leaves; routing keys and unmarked pointers for internals). On a
// quiescent tree every update has completed its flushes, so the views
// must agree; a mismatch means some code path forgot a flush.
func (t *Tree) ValidatePersisted() error {
	var walk func(off uint64) error
	walk = func(off uint64) error {
		meta := t.meta(off)
		if pm := t.arena.PersistedLoad(off + metaWord); pm != meta {
			return fmt.Errorf("node %d: meta volatile %#x vs persisted %#x", off, meta, pm)
		}
		if kindOf(meta) == leafKind {
			for i := 0; i < t.b; i++ {
				kw := leafKeyOff(off, i)
				if t.arena.Load(kw) != t.arena.PersistedLoad(kw) {
					return fmt.Errorf("leaf %d key slot %d not persisted", off, i)
				}
				k := t.arena.Load(kw)
				vw := leafValOff(off, i)
				if k != emptyKey && t.arena.Load(vw) != t.arena.PersistedLoad(vw) {
					return fmt.Errorf("leaf %d val slot %d not persisted", off, i)
				}
			}
			return nil
		}
		for i := 0; i < nchildrenOf(meta)-1; i++ {
			kw := routingKeyOff(off, i)
			if t.arena.Load(kw) != t.arena.PersistedLoad(kw) {
				return fmt.Errorf("internal %d routing key %d not persisted", off, i)
			}
		}
		for i := 0; i < nchildrenOf(meta); i++ {
			pw := childOff(off, i)
			vol := t.arena.Load(pw)
			per := t.arena.PersistedLoad(pw)
			if vol&markBit != 0 {
				return fmt.Errorf("internal %d child %d marked at quiescence", off, i)
			}
			if per&^markBit != vol {
				return fmt.Errorf("internal %d child %d: volatile %d vs persisted %d", off, i, vol, per)
			}
			if err := walk(vol); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.entryOff)
}

// Stats summarises the tree's shape and arena usage for experiment logs.
type Stats struct {
	Keys        int
	Leaves      int
	Internal    int
	Tagged      int
	Height      int
	AvgLeafFill float64 // mean keys per leaf / b
	SlotsUsed   uint64  // bump-allocated node slots (never shrinks)
}

// Stats collects shape statistics (quiescent only).
func (t *Tree) Stats() Stats {
	var s Stats
	s.Height = t.Height()
	s.SlotsUsed = t.arena.Allocated() / NodeWords
	var walk func(off uint64)
	walk = func(off uint64) {
		meta := t.meta(off)
		if kindOf(meta) == leafKind {
			s.Leaves++
			s.Keys += int(t.vn(off).size.Load())
			return
		}
		if kindOf(meta) == taggedKind {
			s.Tagged++
		} else {
			s.Internal++
		}
		for i := 0; i < nchildrenOf(meta); i++ {
			walk(t.loadChild(off, i))
		}
	}
	walk(t.loadChild(t.entryOff, 0))
	if s.Leaves > 0 {
		s.AvgLeafFill = float64(s.Keys) / float64(s.Leaves*t.b)
	}
	return s
}
