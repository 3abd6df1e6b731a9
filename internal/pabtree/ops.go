package pabtree

// The per-key operations: wrappers of internal/abalg's Insert, Delete
// and Upsert, each in an epoch critical section, the three locked-leaf
// steps they call (contracts in abalg.Store), which carry the leaf half
// of the package comment's flush discipline, and Find, a descent and a
// double collect.

import "repro/internal/abalg"

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
		val, found := t.valOf(off, key)
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
	val, found = t.valOf(off, key)
	return val, found, v.ver.Load() == v1
}

// valOf returns key's value in the leaf, if present, in one pass.
// Lock-free callers validate the pass against the leaf's version.
func (t *Tree) valOf(off, key uint64) (uint64, bool) {
	for i := 0; i < t.b; i++ {
		if t.leafKey(off, i) == key {
			return t.leafVal(off, i), true
		}
	}
	return 0, false
}

// Find returns the value associated with key, if present.
func (th *Thread) Find(key uint64) (uint64, bool) {
	abalg.CheckKey(key)
	th.enter()
	defer th.exit()
	t := th.t
	return t.leafSearch(t.search(key, 0).N, key)
}

// Insert inserts <key, val> if absent, returning (0, true); if key is
// present it returns the existing value and false. Durable on return.
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	th.enter()
	defer th.exit()
	return abalg.Insert(th, key, val)
}

// Delete removes key if present, returning its value and true. The delete
// is durable once the ⊥ key reaches PM.
func (th *Thread) Delete(key uint64) (uint64, bool) {
	th.enter()
	defer th.exit()
	return abalg.Delete(th, key)
}

// Upsert sets key's value to val, inserting if absent (the §7
// replace-style insert). Durable on return (replace: one value flush;
// insert: one flush of the pair's line; split: link-and-persist).
func (th *Thread) Upsert(key, val uint64) {
	th.enter()
	defer th.exit()
	abalg.Upsert(th, key, val)
}

// LockLeaf runs the pre-lock read phase on key's leaf: leafSearch then
// Lock on a p-OCC-ABtree, one leafScanOnce then lockOrElim on a
// p-Elim-ABtree. An upsert decides nothing before the lock.
func (th *Thread) LockLeaf(key uint64, op abalg.OpKind) (uint64, bool, uint64) {
	t := th.t
	leaf := t.search(key, 0).N
	if op != abalg.OpUpsert {
		var v uint64
		found, consistent := false, true
		if t.elim {
			v, found, consistent = t.leafScanOnce(leaf, key)
		} else {
			v, found = t.leafSearch(leaf, key)
		}
		if consistent && found == (op == abalg.OpInsert) {
			return leaf, false, v
		}
	}
	if !t.elim {
		th.Lock(leaf)
		return leaf, true, 0
	}
	if acquired, v := th.lockOrElim(leaf, key, op); !acquired {
		t.elims[op].Add(1)
		return leaf, false, v
	}
	return leaf, true, 0
}

// lockOrElim spins until it either holds the leaf's lock or finds a
// record published after op started that op may eliminate against
// (abalg.CanEliminate); it then returns false and the record's value.
func (th *Thread) lockOrElim(leaf uint64, key uint64, op abalg.OpKind) (acquired bool, val uint64) {
	t := th.t
	lv := t.vn(leaf)
	startVer := lv.ver.Load()
	spins := 0
	for {
		rec := t.record(leaf, &spins)
		if startVer <= rec.Ver && rec.Key == key && abalg.CanEliminate(op, rec.Kind) {
			return false, rec.Val
		}
		if th.tryLockNode(leaf) {
			return true, 0
		}
		t.crashCheck()
		abalg.SpinPause(&spins)
	}
}

// record waits for the leaf to be quiescent and returns the ElimRecord
// its slot record decodes to (vnode) as of that moment. As in
// internal/core, Ver is the even version minus one: every version window
// on an unmarked leaf publishes, and every other window marks the leaf,
// so a marked leaf serves none (Ver == 0).
func (t *Tree) record(leaf uint64, spins *int) abalg.ElimRecord {
	lv := t.vn(leaf)
	for {
		v1 := lv.ver.Load()
		if v1&1 == 0 {
			var r abalg.ElimRecord
			if i, k := abalg.UnpackRec(lv.size.Load()); i >= 0 && !lv.marked.Load() {
				r = abalg.ElimRecord{Key: t.leafKey(leaf, i), Val: t.leafVal(leaf, i), Kind: k, Ver: v1 - 1}
				if k == abalg.RecDelete {
					r.Key = lv.delKey.Load()
				}
			}
			if lv.ver.Load() == v1 {
				return r
			}
		}
		t.crashCheck()
		abalg.SpinPause(spins)
	}
}

// PutLocked writes with the persistent flush discipline: a simple insert
// through persistPair, a replace by flushing the value word, which is
// the replace's commit point — if a crash intervenes, the replace
// linearizes at the crash iff the new value reached PM (single-word
// atomicity).
func (th *Thread) PutLocked(leaf, key, val uint64, replace bool) (old uint64, inserted, full, marked bool) {
	t, lv := th.t, th.t.vn(leaf)
	if lv.marked.Load() {
		return 0, false, false, true
	}
	at, empty := t.findSlot(leaf, key)
	switch {
	case at >= 0:
		old = t.leafVal(leaf, at)
		if replace {
			lv.ver.Add(1)
			t.rqStamp(leaf)
			valOff := leafValOff(leaf, at)
			t.arena.Store(valOff, val)
			t.arena.Flush(valOff)
			t.closeWindow(lv, lv.size.Load(), at, abalg.RecReplace)
		}
		return old, false, false, false
	case empty < 0:
		return 0, false, true, false
	}
	lv.ver.Add(1)
	t.rqStamp(leaf)
	t.persistPair(leaf, empty, key, val)
	t.closeWindow(lv, lv.size.Load()+1, empty, abalg.RecInsert)
	return 0, true, false, false
}

// DeleteLocked clears the key's slot, durable once the ⊥ key reaches PM,
// and publishes the elimination record, inside one version window.
func (th *Thread) DeleteLocked(leaf, key uint64) (val uint64, found bool, size int, marked bool) {
	t, lv := th.t, th.t.vn(leaf)
	if lv.marked.Load() {
		return 0, false, 0, true
	}
	at, _ := t.findSlot(leaf, key)
	if at < 0 {
		return 0, false, lv.leafSize(), false
	}
	val = t.leafVal(leaf, at)
	lv.ver.Add(1)
	t.rqStamp(leaf)
	if t.elim {
		lv.delKey.Store(key) // the record's key: its slot now holds ⊥
	}
	keyOff := leafKeyOff(leaf, at)
	t.arena.Store(keyOff, emptyKey)
	t.arena.Flush(keyOff)
	s := lv.size.Load() - 1
	t.closeWindow(lv, s, at, abalg.RecDelete)
	return val, true, int(s & abalg.SizeMask), false
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

// closeWindow stores the locked leaf's new size word — size in state and,
// on a p-Elim-ABtree, the slot record of the update of kind k that wrote
// pair i — and closes the version window the update linearizes at.
func (t *Tree) closeWindow(lv *vnode, state uint32, i int, k abalg.RecKind) {
	if t.elim {
		state = state&^abalg.RecMask | abalg.PackRec(i, k)
	}
	lv.size.Store(state)
	lv.ver.Add(1)
}

// leafSize returns a leaf's key count.
func (v *vnode) leafSize() int { return int(v.size.Load() & abalg.SizeMask) }

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
