package core

// The per-key operations: wrappers of internal/abalg's Find, Insert,
// Delete and Upsert, and the two locked-leaf writes the updates call
// (contracts in abalg.Store).

import "repro/internal/abalg"

// Find returns the value associated with key, if present (paper §3.2).
// Finds take no locks and never restart from the root.
func (th *Thread) Find(key uint64) (uint64, bool) { return abalg.Find(th, key) }

// Insert inserts <key, val> if key is absent and returns (0, true).
// If key is present, the tree is unchanged and Insert returns the existing
// value and false (the paper's insert semantics, §3).
func (th *Thread) Insert(key, val uint64) (uint64, bool) { return abalg.Insert(th, key, val) }

// Delete removes key if present, returning its value and true; otherwise
// it returns (0, false) and leaves the tree unchanged (paper §3.2).
func (th *Thread) Delete(key uint64) (uint64, bool) { return abalg.Delete(th, key) }

// Upsert sets key's value to val, inserting the key if absent: the
// paper's §7 replace-style insert (abalg/elim.go).
func (th *Thread) Upsert(key, val uint64) { abalg.Upsert(th, key, val) }

// PutLocked writes inside one version window (openWindow, closeWindow),
// which on an Elim-ABtree publishes the slot record — an insert record
// for an upsert of an absent key, which was absent before it. A simple
// insert linearizes at the second version increment.
func (th *Thread) PutLocked(n *node, key, val uint64, replace bool) (old uint64, inserted, full, marked bool) {
	if n.isMarked() {
		return 0, false, false, true
	}
	t, l := th.t, n.leaf()
	at, empty := t.findSlot(l, key)
	switch {
	case at >= 0:
		old = l.vals[at].Load()
		if replace {
			s := t.openWindow(l)
			l.vals[at].Store(val)
			t.closeWindow(l, s, at, abalg.RecReplace)
		}
		return old, false, false, false
	case empty < 0:
		return 0, false, true, false
	}
	s := t.openWindow(l)
	l.vals[empty].Store(val)
	l.keys[empty].Store(key)
	t.closeWindow(l, s+1, empty, abalg.RecInsert)
	return 0, true, false, false
}

// DeleteLocked clears the key's slot or, on an Elim-ABtree, publishes the
// delete record, which leaves the pair in place as the leaf's tombstone
// (delete logically now, physically at the leaf's next window).
func (th *Thread) DeleteLocked(n *node, key uint64) (val uint64, found bool, size int, marked bool) {
	if n.isMarked() {
		return 0, false, 0, true
	}
	t, l := th.t, n.leaf()
	idx, _ := t.findSlot(l, key)
	if idx < 0 {
		return 0, false, n.size(), false
	}
	val = l.vals[idx].Load()
	s := t.openWindow(l) - 1
	if !t.elim {
		l.keys[idx].Store(emptyKey)
	}
	t.closeWindow(l, s, idx, abalg.RecDelete)
	return val, true, int(s & abalg.SizeMask), false
}

// findSlot scans the locked leaf l for key. at is key's slot, or -1 if
// key is absent; empty is then the first empty slot, else the tombstone,
// else -1 (l is full).
func (t *Tree) findSlot(l *leaf, key uint64) (at, empty int) {
	empty = -1
	for i := 0; i < t.b; i++ {
		switch k := l.keys[i].Load(); {
		case k == key && i != t.tomb(l):
			return i, empty
		case k == emptyKey && empty < 0:
			empty = i
		}
	}
	if empty < 0 {
		empty = t.tomb(l)
	}
	return -1, empty
}

// openWindow opens the locked leaf's version window for an in-place
// update (version now odd: modification in progress), preserves its
// pre-write state for range queries, clears the tombstone of the leaf's
// previous publishing update, and returns the leaf's state word.
func (t *Tree) openWindow(l *leaf) (state uint32) {
	l.ver.Add(1)
	t.rqStamp(l)
	state = l.state.Load()
	if i := tombstone(state); t.elim && i >= 0 {
		l.keys[i].Store(emptyKey)
	}
	return state
}

// closeWindow stores the locked leaf's new state — the size in state and,
// on an Elim-ABtree, the slot record of the update of kind k that wrote
// slot i — and closes the version window the update linearizes at.
func (t *Tree) closeWindow(l *leaf, state uint32, i int, k abalg.RecKind) {
	if t.elim {
		state = state&^abalg.RecMask | abalg.PackRec(i, k)
	}
	l.state.Store(state)
	l.ver.Add(1)
}
