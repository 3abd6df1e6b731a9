package pabtree

import (
	"repro/internal/abalg"
	"repro/internal/core"
)

// search descends from the entry toward key, stopping at a leaf or at
// target, lock-free. It only follows persisted (unmarked) pointers.
// Offset 0 is "none".
func (t *Tree) search(key uint64, target uint64) abalg.Path[uint64] {
	var gp, p uint64
	pIdx := 0
	n := t.entryOff
	nIdx := 0
	for {
		meta := t.meta(n)
		if kindOf(meta) == abalg.LeafKind || n == target {
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
	return abalg.Path[uint64]{GP: gp, P: p, PIdx: pIdx, N: n, NIdx: nIdx}
}

// leafSearch double-collects a consistent answer for key in the leaf.
func (t *Tree) leafSearch(off uint64, key uint64) (uint64, bool) {
	v := t.vn(off)
	spins := 0
	for {
		v1 := v.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			abalg.SpinPause(&spins)
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
		abalg.SpinPause(&spins)
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
	abalg.CheckKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	path := t.search(key, 0)
	return t.leafSearch(path.N, key)
}

// Insert inserts <key, val> if absent, returning (0, true); if key is
// present it returns the existing value and false.
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	abalg.CheckKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.N
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
			th.Lock(leaf)
		}

		if lv.marked.Load() {
			th.UnlockAll()
			continue
		}

		if done, old, inserted := t.leafInsertLocked(leaf, key, val); done {
			th.UnlockAll()
			return old, inserted
		}

		// Splitting insert.
		parent := path.P
		th.Lock(parent)
		if t.vn(parent).marked.Load() {
			th.UnlockAll()
			continue
		}
		taggedOff := abalg.SplitInsert(th, leaf, parent, path.NIdx, key, val)
		th.UnlockAll()
		if taggedOff != 0 {
			abalg.FixTagged(th, taggedOff)
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
	lv.ver.Add(1)
	t.rqStamp(leaf)
	t.persistPair(leaf, emptyIdx, key, val)
	t.closeWindow(lv, lv.size.Load()+1, emptyIdx, core.RecInsert)
	return true, 0, true
}

// closeWindow stores the locked leaf's new size word — size in state and,
// on a p-Elim-ABtree, the slot record of the update of kind k that wrote
// pair i — and closes the version window the update linearizes at.
func (t *Tree) closeWindow(lv *vnode, state uint32, i int, k core.RecKind) {
	if t.elim {
		state = state&^core.RecMask | core.PackRec(i, k)
	}
	lv.size.Store(state)
	lv.ver.Add(1)
}

// leafSize returns a leaf's key count.
func (v *vnode) leafSize() int { return int(v.size.Load() & core.SizeMask) }

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
func (t *Tree) leafDeleteLocked(leaf uint64, key uint64) (val uint64, found bool, newSize int) {
	lv := t.vn(leaf)
	idx := -1
	for i := 0; i < t.b; i++ {
		if t.leafKey(leaf, i) == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false, lv.leafSize()
	}
	val = t.leafVal(leaf, idx)
	lv.ver.Add(1)
	t.rqStamp(leaf)
	if t.elim {
		lv.delKey.Store(key) // the record's key: its slot now holds ⊥
	}
	keyOff := leafKeyOff(leaf, idx)
	t.arena.Store(keyOff, emptyKey)
	t.arena.Flush(keyOff)
	s := lv.size.Load() - 1
	t.closeWindow(lv, s, idx, core.RecDelete)
	return val, true, int(s & core.SizeMask)
}

// Delete removes key if present, returning its value and true. The delete
// is durable once the ⊥ key reaches PM.
func (th *Thread) Delete(key uint64) (uint64, bool) {
	abalg.CheckKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	for {
		path := t.search(key, 0)
		leaf := path.N
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
			th.Lock(leaf)
		}

		if lv.marked.Load() {
			th.UnlockAll()
			continue
		}

		val, found, newSize := t.leafDeleteLocked(leaf, key)
		th.UnlockAll()
		if !found {
			return 0, false
		}
		if newSize < t.a {
			abalg.FixUnderfull(th, leaf)
		}
		return val, true
	}
}
