package pabtree

import "repro/internal/core"

// pathInfo is a search result: node offsets plus child indices.
type pathInfo struct {
	gp, p, n   uint64 // offsets; 0 means "none"
	pIdx, nIdx int
}

// search descends from the entry toward key, stopping at a leaf or at
// target, lock-free. It only follows persisted (unmarked) pointers.
func (t *Tree) search(key uint64, target uint64) pathInfo {
	var gp, p uint64
	pIdx := 0
	n := t.entryOff
	nIdx := 0
	for {
		meta := t.meta(n)
		if kindOf(meta) == leafKind || n == target {
			break
		}
		gp, p, pIdx = p, n, nIdx
		nIdx = 0
		rk := nchildrenOf(meta) - 1
		for nIdx < rk && key >= t.routingKey(n, nIdx) {
			nIdx++
		}
		n = t.loadChild(p, nIdx)
	}
	return pathInfo{gp: gp, p: p, pIdx: pIdx, n: n, nIdx: nIdx}
}

// leafSearch double-collects a consistent answer for key in the leaf.
func (t *Tree) leafSearch(off uint64, key uint64) (uint64, bool) {
	v := t.vn(off)
	spins := 0
	for {
		v1 := v.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			spinPause(&spins)
			continue
		}
		var val uint64
		found := false
		for i := 0; i < t.b; i++ {
			if t.leafKey(off, i) == key {
				val = t.leafVal(off, i)
				found = true
				break
			}
		}
		if v.ver.Load() == v1 {
			return val, found
		}
		t.crashCheck()
		spinPause(&spins)
	}
}

// leafScanOnce is the Elim variant's single optimistic scan.
func (t *Tree) leafScanOnce(off uint64, key uint64) (val uint64, found, consistent bool) {
	v := t.vn(off)
	v1 := v.ver.Load()
	if v1&1 == 1 {
		return 0, false, false
	}
	for i := 0; i < t.b; i++ {
		if t.leafKey(off, i) == key {
			val = t.leafVal(off, i)
			found = true
			break
		}
	}
	return val, found, v.ver.Load() == v1
}

// Find returns the value associated with key, if present.
func (th *Thread) Find(key uint64) (uint64, bool) {
	checkKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	path := t.search(key, 0)
	return t.leafSearch(path.n, key)
}

// Insert inserts <key, val> if absent, returning (0, true); if key is
// present it returns the existing value and false.
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.n
		lv := t.vn(leaf)

		if t.elim {
			v, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && found {
				return v, false
			}
			acquired, ev := th.lockOrElimKind(leaf, key, core.OpInsert)
			if !acquired {
				t.elimInserts.Add(1)
				return ev, false
			}
		} else {
			if v, found := t.leafSearch(leaf, key); found {
				return v, false
			}
			th.lockNode(leaf)
		}

		if lv.marked.Load() {
			th.unlockAll()
			continue
		}

		if done, old, inserted := t.leafInsertLocked(leaf, key, val); done {
			th.unlockAll()
			return old, inserted
		}

		// Splitting insert.
		parent := path.p
		th.lockNode(parent)
		if t.vn(parent).marked.Load() {
			th.unlockAll()
			continue
		}
		taggedOff := t.splitInsert(th, leaf, parent, path.nIdx, key, val)
		th.unlockAll()
		if taggedOff != 0 {
			th.fixTagged(taggedOff)
		}
		return 0, true
	}
}

// findSlot scans the locked leaf for key. at is key's pair index, or -1
// if key is absent; empty is then the first empty pair, or -1 if the
// leaf is full.
func (t *Tree) findSlot(leaf, key uint64) (at, empty int) {
	empty = -1
	for i := 0; i < t.b; i++ {
		switch k := t.leafKey(leaf, i); {
		case k == key:
			return i, empty
		case k == emptyKey && empty < 0:
			empty = i
		}
	}
	return -1, empty
}

// leafInsertLocked performs the locked phase of a simple insert: verify
// key is absent, find an empty slot, and write the pair with the
// persistent flush discipline (persistPair). done is false when the
// leaf is full (splitting insert required). The caller holds the leaf's
// lock and has verified it is unmarked.
func (t *Tree) leafInsertLocked(leaf uint64, key, val uint64) (done bool, old uint64, inserted bool) {
	lv := t.vn(leaf)
	dup, emptyIdx := t.findSlot(leaf, key)
	if dup >= 0 {
		return true, t.leafVal(leaf, dup), false
	}
	if emptyIdx < 0 {
		return false, 0, false // full: splitting insert
	}
	ver := lv.ver.Add(1)
	t.rqStamp(leaf)
	if t.elim {
		lv.rec.Store(&elimRecord{key: key, val: val, ver: ver, kind: core.RecInsert})
	}
	t.persistPair(leaf, emptyIdx, key, val)
	lv.size.Add(1)
	lv.ver.Add(1)
	return true, 0, true
}

// persistPair writes <key, val> into the empty pair i of the locked leaf
// and makes it durable with one flush. The pair shares a cache line, and
// a line reaches PM as a snapshot of stores that became visible in
// program order, so the key can never be persisted without the value
// stored before it: the insert is durable — and, if interrupted by a
// crash, linearizes — when the key reaches PM; before that the slot is
// logically empty (key still ⊥).
func (t *Tree) persistPair(leaf uint64, i int, key, val uint64) {
	t.arena.Store(leafValOff(leaf, i), val)
	keyOff := leafKeyOff(leaf, i)
	t.arena.Store(keyOff, key)
	t.arena.Flush(keyOff)
}

// leafDeleteLocked performs the locked phase of a delete: clear the
// key's slot (durable once the ⊥ key reaches PM) and publish the
// elimination record inside one version window. The caller holds the
// leaf's lock and has verified it is unmarked; it is responsible for
// fixUnderfull when newSize < a.
func (t *Tree) leafDeleteLocked(leaf uint64, key uint64) (val uint64, found bool, newSize int64) {
	lv := t.vn(leaf)
	idx := -1
	for i := 0; i < t.b; i++ {
		if t.leafKey(leaf, i) == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false, lv.size.Load()
	}
	val = t.leafVal(leaf, idx)
	ver := lv.ver.Add(1)
	t.rqStamp(leaf)
	if t.elim {
		lv.rec.Store(&elimRecord{key: key, val: val, ver: ver, kind: core.RecDelete})
	}
	keyOff := leafKeyOff(leaf, idx)
	t.arena.Store(keyOff, emptyKey)
	t.arena.Flush(keyOff)
	newSize = lv.size.Add(-1)
	lv.ver.Add(1)
	return val, true, newSize
}

// splitInsert replaces the full leaf with a (usually tagged) two-leaf
// subtree containing the leaf's pairs plus <key, val>. The new nodes are
// flushed before the parent pointer is published (link-and-persist), so
// the insert becomes durable exactly when the pointer line is flushed.
func (t *Tree) splitInsert(th *Thread, leaf, parent uint64, nIdx int, key, val uint64) uint64 {
	items := t.gatherLeaf(leaf)
	items = append(items, kvPair{key, val})
	sortKVs(items)

	mid := len(items) / 2
	sep := items[mid].k

	// Open the leaf's version window around the replacement so snapshot
	// scans can arbitrate against the stamp read inside it (rqsnap.go).
	lv := t.vn(leaf)
	lv.ver.Add(1)
	c := t.rqp.ReadStamp()
	leftOff := t.allocSlot()
	rightOff := t.allocSlot()
	topOff := t.allocSlot()
	t.initLeaf(leftOff, items[:mid], lv.searchKey)
	t.initLeaf(rightOff, items[mid:], sep)
	t.rqInheritSplit(leaf, leftOff, rightOff, sep, c)

	k := taggedKind
	if parent == t.entryOff {
		k = internalKind
	}
	t.initInternalNode(topOff, k, []uint64{sep}, []uint64{leftOff, rightOff}, lv.searchKey)

	t.setChildPersist(parent, nIdx, topOff)
	lv.marked.Store(true)
	lv.ver.Add(1)
	th.retire(leaf)
	if k == taggedKind {
		return topOff
	}
	return 0
}

// Delete removes key if present, returning its value and true. The delete
// is durable once the ⊥ key reaches PM.
func (th *Thread) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.n
		lv := t.vn(leaf)

		if t.elim {
			_, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && !found {
				return 0, false
			}
			acquired, _ := th.lockOrElimKind(leaf, key, core.OpDelete)
			if !acquired {
				t.elimDeletes.Add(1)
				return 0, false // eliminated deletes return ⊥
			}
		} else {
			if _, found := t.leafSearch(leaf, key); !found {
				return 0, false
			}
			th.lockNode(leaf)
		}

		if lv.marked.Load() {
			th.unlockAll()
			continue
		}

		val, found, newSize := t.leafDeleteLocked(leaf, key)
		th.unlockAll()
		if !found {
			return 0, false
		}
		if int(newSize) < t.a {
			th.fixUnderfull(leaf)
		}
		return val, true
	}
}

func checkKey(key uint64) {
	if key == emptyKey {
		panic("pabtree: key 0 is reserved as the empty sentinel")
	}
	if key == ^uint64(0) {
		panic("pabtree: key 2^64-1 is reserved as the key-range upper bound")
	}
}

// gatherLeaf collects a locked leaf's pairs from the arena.
func (t *Tree) gatherLeaf(off uint64) []kvPair {
	items := make([]kvPair, 0, t.b+1)
	for i := 0; i < t.b; i++ {
		if k := t.leafKey(off, i); k != emptyKey {
			items = append(items, kvPair{k, t.leafVal(off, i)})
		}
	}
	return items
}

func sortKVs(items []kvPair) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && items[j].k > it.k {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}
