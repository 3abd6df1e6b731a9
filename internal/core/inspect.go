package core

import (
	"errors"
	"fmt"
	"math"
)

// This file contains quiescent inspection utilities: they traverse the
// tree without synchronization and are intended for tests, validation and
// post-benchmark accounting, when no concurrent operations are running.

// Scan calls fn for every key-value pair, in ascending key order. It must
// only be called while the tree is quiescent.
func (t *Tree) Scan(fn func(k, v uint64)) {
	t.scan(t.root(), fn)
}

func (t *Tree) scan(n *node, fn func(k, v uint64)) {
	if n.isLeaf() {
		var buf [maxCap]kv
		items := gatherLeaf(t, n.leaf(), buf[:0])
		sortKVs(items)
		for _, it := range items {
			fn(it.k, it.v)
		}
		return
	}
	ptrs := &n.inner().ptrs
	for i := 0; i < int(n.nchildren); i++ {
		t.scan(ptrs[i].Load(), fn)
	}
}

// Len returns the number of keys (quiescent only).
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ uint64) { n++ })
	return n
}

// KeySum returns the sum of all keys, wrapping on overflow. It implements
// the paper's §6 validation scheme: benchmark threads track the sum of
// keys they successfully insert minus those they delete, and the grand
// total must equal KeySum at the end of the run.
func (t *Tree) KeySum() uint64 {
	var sum uint64
	t.Scan(func(k, _ uint64) { sum += k })
	return sum
}

// Height returns the number of levels below the entry node (quiescent
// only). An empty tree (a single leaf root) has height 1.
func (t *Tree) Height() int {
	h := 0
	for n := t.root(); ; n = n.inner().ptrs[0].Load() {
		h++
		if n.isLeaf() {
			return h
		}
	}
}

// Stats summarises the tree's shape for experiment logs.
type Stats struct {
	Keys        int
	Leaves      int
	Internal    int
	Tagged      int
	Height      int
	AvgLeafFill float64 // mean keys per leaf / b
}

// Stats collects shape statistics (quiescent only).
func (t *Tree) Stats() Stats {
	var s Stats
	s.Height = t.Height()
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf() {
			s.Leaves++
			s.Keys += n.size()
			return
		}
		if n.tagged() {
			s.Tagged++
		} else {
			s.Internal++
		}
		ptrs := &n.inner().ptrs
		for i := 0; i < int(n.nchildren); i++ {
			walk(ptrs[i].Load())
		}
	}
	walk(t.root())
	if s.Leaves > 0 {
		s.AvgLeafFill = float64(s.Keys) / float64(s.Leaves*t.b)
	}
	return s
}

// Validate checks the structural invariants of the (a,b)-tree (paper
// Theorem 3.5) on a quiescent tree and returns the first violation found:
//
//  1. reachable nodes form a search tree with correctly partitioned key
//     ranges;
//  2. no reachable node is marked, no node is tagged (tags are transient
//     and must be gone at quiescence);
//  3. every leaf's size matches its non-empty key count, keys are unique
//     within a leaf and within the tree;
//  4. non-root nodes have between a and b entries;
//  5. all leaves are at the same depth.
func (t *Tree) Validate() error {
	root := t.root()
	leafDepth := -1
	seen := make(map[uint64]bool)
	var walk func(n *node, lo, hi uint64, depth int, isRoot bool) error
	walk = func(n *node, lo, hi uint64, depth int, isRoot bool) error {
		if n == nil {
			return errors.New("nil child pointer")
		}
		if n.isMarked() {
			return fmt.Errorf("reachable node at depth %d is marked", depth)
		}
		if n.tagged() {
			return fmt.Errorf("tagged node present at quiescence (depth %d)", depth)
		}
		if n.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			count := 0
			for i := 0; i < t.b; i++ {
				k := n.keys[i].Load()
				if k == emptyKey {
					continue
				}
				count++
				if k < lo || k >= hi {
					return fmt.Errorf("leaf key %d outside key range [%d, %d)", k, lo, hi)
				}
				if seen[k] {
					return fmt.Errorf("duplicate key %d", k)
				}
				seen[k] = true
			}
			if count != n.size() {
				return fmt.Errorf("leaf size %d but %d non-empty keys", n.size(), count)
			}
			if !isRoot && (count < t.a || count > t.b) {
				return fmt.Errorf("leaf size %d outside [%d, %d]", count, t.a, t.b)
			}
			return nil
		}
		nc := int(n.nchildren)
		if !isRoot && nc < t.a {
			return fmt.Errorf("internal node with %d children (< a=%d)", nc, t.a)
		}
		if nc < 2 || nc > t.b {
			return fmt.Errorf("internal node with %d children outside [2, %d]", nc, t.b)
		}
		prev := lo
		for i := 0; i < nc-1; i++ {
			k := n.keys[i].Load()
			if k < prev || k >= hi {
				return fmt.Errorf("routing key %d not in [%d, %d)", k, prev, hi)
			}
			if i > 0 && k <= n.keys[i-1].Load() {
				return fmt.Errorf("routing keys not strictly increasing at index %d", i)
			}
			prev = k
		}
		childLo := lo
		for i := 0; i < nc; i++ {
			childHi := hi
			if i < nc-1 {
				childHi = n.keys[i].Load()
			}
			if err := walk(n.inner().ptrs[i].Load(), childLo, childHi, depth+1, false); err != nil {
				return err
			}
			childLo = childHi
		}
		return nil
	}
	return walk(root, 1, math.MaxUint64, 0, true)
}
