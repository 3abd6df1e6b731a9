package core

// This file implements two design-ablation variants of the OCC-ABtree,
// used only by the ablation benchmarks (bench_test.go) to quantify design
// decisions the paper calls out:
//
//   - WithSortedLeaves: keeps each leaf's keys sorted and dense, like a
//     textbook B-tree leaf (and like the LF-ABtree). Searches for absent
//     keys can stop early, but every insert and delete must shift the
//     tail of the arrays — the paper's §1/§3.1 argument for unsorted
//     leaves ("much faster updates since inserts and deletes do not need
//     to shift other keys").
//   - WithLockedSearch: Find acquires the leaf lock instead of using the
//     double-collect version validation, quantifying what the lock-free
//     search buys (§3.2: finds "never have to restart" and never block).

// WithSortedLeaves switches leaves to sorted, dense storage (ablation).
// Incompatible with WithElimination.
func WithSortedLeaves() Option { return func(t *Tree) { t.sorted = true } }

// WithLockedSearch makes Find lock the leaf instead of validating with
// versions (ablation).
func WithLockedSearch() Option { return func(t *Tree) { t.lockedFind = true } }

// leafSearchSorted is the double-collect search specialized for sorted
// leaves: the scan stops at the first key greater than the target.
func (t *Tree) leafSearchSorted(n *node, key uint64) (uint64, bool) {
	l := n.leaf()
	spins := 0
	for {
		v1 := l.ver.Load()
		if v1&1 == 1 {
			spinPause(&spins)
			continue
		}
		var val uint64
		found := false
		for i := 0; i < t.b; i++ {
			k := l.keys[i].Load()
			if k == emptyKey || k > key {
				break
			}
			if k == key {
				val = l.vals[i].Load()
				found = true
				break
			}
		}
		if l.ver.Load() == v1 {
			return val, found
		}
		spinPause(&spins)
	}
}

// findLocked is Find with the leaf lock held instead of version
// validation (WithLockedSearch).
func (th *Thread) findLocked(key uint64) (uint64, bool) {
	t := th.t
	for {
		n := t.search(key, nil).n
		th.lockNode(n)
		leaf := n.leaf()
		if leaf.isMarked() {
			th.unlockAll()
			continue
		}
		var val uint64
		found := false
		for i := 0; i < t.b; i++ {
			if leaf.keys[i].Load() == key {
				val = leaf.vals[i].Load()
				found = true
				break
			}
		}
		th.unlockAll()
		return val, found
	}
}

// insertSorted is the simple-insert path for sorted leaves: find the
// insertion position, shift the tail right one slot, write the pair.
// Returns handled == false if the leaf is full (caller runs the shared
// splitting-insert path, which re-sorts anyway).
func (t *Tree) insertSorted(n *node, key, val uint64) (old uint64, inserted, handled bool) {
	leaf := n.leaf()
	size := leaf.size()
	pos := size
	for i := 0; i < size; i++ {
		k := leaf.keys[i].Load()
		if k == key {
			return leaf.vals[i].Load(), false, true
		}
		if k > key {
			pos = i
			break
		}
	}
	if size == t.b {
		return 0, false, false // full: split
	}
	leaf.ver.Add(1)
	t.rqStamp(leaf)
	for i := size; i > pos; i-- {
		leaf.keys[i].Store(leaf.keys[i-1].Load())
		leaf.vals[i].Store(leaf.vals[i-1].Load())
	}
	leaf.vals[pos].Store(val)
	leaf.keys[pos].Store(key)
	leaf.addSize(1)
	leaf.ver.Add(1)
	return 0, true, true
}

// deleteSorted removes key from a sorted leaf, shifting the tail left.
// Returns handled == false if the key is absent.
func (t *Tree) deleteSorted(n *node, key uint64) (val uint64, handled bool) {
	leaf := n.leaf()
	size := leaf.size()
	pos := -1
	for i := 0; i < size; i++ {
		k := leaf.keys[i].Load()
		if k == key {
			pos = i
			break
		}
		if k > key {
			break
		}
	}
	if pos < 0 {
		return 0, false
	}
	val = leaf.vals[pos].Load()
	leaf.ver.Add(1)
	t.rqStamp(leaf)
	for i := pos; i < size-1; i++ {
		leaf.keys[i].Store(leaf.keys[i+1].Load())
		leaf.vals[i].Store(leaf.vals[i+1].Load())
	}
	leaf.keys[size-1].Store(emptyKey)
	leaf.addSize(-1)
	leaf.ver.Add(1)
	return val, true
}
