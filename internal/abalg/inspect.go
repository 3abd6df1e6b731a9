package abalg

import (
	"errors"
	"fmt"
	"math"
)

// Quiescent inspection utilities: they traverse the tree without
// synchronization and are intended for tests, validation and
// post-benchmark accounting, when no concurrent operations are running.

func root[R comparable](s Store[R]) R { return s.Child(s.Entry(), 0) }

// Scan calls fn for every key-value pair, in ascending key order.
func Scan[R comparable](s Store[R], fn func(k, v uint64)) { scan(s, root(s), fn) }

func scan[R comparable](s Store[R], n R, fn func(k, v uint64)) {
	if s.Kind(n) == LeafKind {
		for _, it := range gather(s, n, s.Scratch().Items[:0]) {
			fn(it.K, it.V)
		}
		return
	}
	for i, nc := 0, s.Size(n); i < nc; i++ {
		scan(s, s.Child(n, i), fn)
	}
}

// Len returns the number of keys.
func Len[R comparable](s Store[R]) int {
	n := 0
	Scan(s, func(_, _ uint64) { n++ })
	return n
}

// KeySum returns the sum of all keys, wrapping on overflow. It implements
// the paper's §6 validation scheme: benchmark threads track the sum of
// keys they successfully insert minus those they delete, and the grand
// total must equal KeySum at the end of the run.
func KeySum[R comparable](s Store[R]) uint64 {
	var sum uint64
	Scan(s, func(k, _ uint64) { sum += k })
	return sum
}

// Height returns the number of levels below the entry node. An empty tree
// (a single leaf root) has height 1.
func Height[R comparable](s Store[R]) int {
	h := 1
	for n := root(s); s.Kind(n) != LeafKind; n = s.Child(n, 0) {
		h++
	}
	return h
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

// Shape collects shape statistics.
func Shape[R comparable](s Store[R]) Stats {
	st := Stats{Height: Height(s)}
	var walk func(n R)
	walk = func(n R) {
		switch s.Kind(n) {
		case LeafKind:
			st.Leaves++
			st.Keys += s.Size(n)
			return
		case TaggedKind:
			st.Tagged++
		default:
			st.Internal++
		}
		for i, nc := 0, s.Size(n); i < nc; i++ {
			walk(s.Child(n, i))
		}
	}
	walk(root(s))
	_, b := s.Degree()
	st.AvgLeafFill = float64(st.Keys) / float64(st.Leaves*b)
	return st
}

// Validate checks the structural invariants of the (a,b)-tree (paper
// Theorems 3.5 and 5.4) on a quiescent tree and returns the first
// violation found:
//
//  1. reachable nodes form a search tree with correctly partitioned key
//     ranges, and each node's searchKey is its range's lower bound;
//  2. no reachable node is marked, no node is tagged (tags are transient
//     and must be gone at quiescence);
//  3. every leaf's size matches its non-empty key count, keys are unique
//     within a leaf and within the tree;
//  4. non-root nodes have between a and b entries;
//  5. all leaves are at the same depth.
func Validate[R comparable](s Store[R]) error {
	var none R
	a, b := s.Degree()
	leafDepth := -1
	seen := make(map[uint64]bool)
	var walk func(n R, lo, hi uint64, depth int, isRoot bool) error
	walk = func(n R, lo, hi uint64, depth int, isRoot bool) error {
		if n == none {
			return errors.New("nil child pointer")
		}
		if s.Marked(n) {
			return fmt.Errorf("reachable node at depth %d is marked", depth)
		}
		if sk := s.SearchKey(n); sk != lo {
			return fmt.Errorf("searchKey %d is not the lower bound of key range [%d, %d)", sk, lo, hi)
		}
		if s.Kind(n) == TaggedKind {
			return fmt.Errorf("tagged node present at quiescence (depth %d)", depth)
		}
		size := s.Size(n)
		if !isRoot && size < a || size > b {
			return fmt.Errorf("node size %d outside [%d, %d] at depth %d", size, a, b, depth)
		}
		if s.Kind(n) == LeafKind {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("leaf at depth %d, expected %d", depth, leafDepth)
			}
			items := gather(s, n, s.Scratch().Items[:0])
			if len(items) != size {
				return fmt.Errorf("leaf size %d but %d non-empty keys", size, len(items))
			}
			for _, it := range items {
				if it.K < lo || it.K >= hi {
					return fmt.Errorf("leaf key %d outside key range [%d, %d)", it.K, lo, hi)
				}
				if seen[it.K] {
					return fmt.Errorf("duplicate key %d", it.K)
				}
				seen[it.K] = true
			}
			return nil
		}
		if size < 2 {
			return fmt.Errorf("internal node with %d children", size)
		}
		childLo := lo
		for i := 0; i < size; i++ {
			childHi := hi
			if i < size-1 {
				childHi = s.RoutingKey(n, i)
				if childHi < childLo || i > 0 && childHi == childLo || childHi >= hi {
					return fmt.Errorf("routing key %d at index %d not increasing within [%d, %d)", childHi, i, lo, hi)
				}
			}
			if err := walk(s.Child(n, i), childLo, childHi, depth+1, false); err != nil {
				return err
			}
			childLo = childHi
		}
		return nil
	}
	return walk(root(s), 1, math.MaxUint64, 0, true)
}
