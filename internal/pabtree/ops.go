package pabtree

// The per-key operations: wrappers of internal/abalg's Find, Insert,
// Delete and Upsert, each in an epoch critical section, and the two
// locked-leaf writes the updates call (contracts in abalg.Store), which
// carry the leaf half of the package comment's flush discipline.

import "repro/internal/abalg"

// Find returns the value associated with key, if present.
func (th *Thread) Find(key uint64) (uint64, bool) {
	th.enter()
	defer th.exit()
	return abalg.Find(th, key)
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
