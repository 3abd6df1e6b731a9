package core

import "repro/internal/abalg"

// Find returns the value associated with key, if present (paper §3.2).
// Finds take no locks and never restart from the root.
func (th *Thread) Find(key uint64) (uint64, bool) {
	abalg.CheckKey(key)
	t := th.t
	return t.leafSearch(t.search(key, nil).N, key)
}

// Insert inserts <key, val> if key is absent and returns (0, true).
// If key is present, the tree is unchanged and Insert returns the existing
// value and false (the paper's insert semantics, §3).
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	abalg.CheckKey(key)
	t := th.t
	for {
		path := t.search(key, nil)
		leaf := path.N

		// Pre-lock read phase. The OCC-ABtree retries leafSearch until it
		// has a consistent snapshot; the Elim-ABtree scans once and, on
		// interference, goes straight to lockOrElim (§4.1).
		if t.elim {
			v, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && found {
				return v, false
			}
			acquired, ev := th.lockOrElimKind(leaf, key, OpInsert)
			if !acquired {
				// Eliminated: linearized immediately after the record's
				// operation; key is (momentarily) present with rec.Val.
				t.elimInserts.Add(1)
				return ev, false
			}
		} else {
			if v, found := t.leafSearch(leaf, key); found {
				return v, false
			}
			th.Lock(leaf)
		}

		if leaf.isMarked() {
			th.UnlockAll()
			continue
		}

		if done, old, inserted := t.insertLocked(leaf, key, val); done {
			th.UnlockAll()
			return old, inserted
		}

		// Splitting insert: no empty slot; replace the leaf with a tagged
		// node over two half leaves (linearizes at the parent's pointer
		// write). Lock the parent too (bottom-to-top order).
		parent := path.P
		th.Lock(parent)
		if parent.isMarked() {
			th.UnlockAll()
			continue
		}
		taggedNode := abalg.SplitInsert(th, leaf, parent, path.NIdx, key, val)
		th.UnlockAll()
		if taggedNode != nil {
			abalg.FixTagged(th, taggedNode)
		}
		return 0, true
	}
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

// insertLocked performs the locked phase of a simple insert: the caller
// holds the leaf's lock. done is false when the leaf is full (splitting
// insert required).
func (t *Tree) insertLocked(n *node, key, val uint64) (done bool, old uint64, inserted bool) {
	leaf := n.leaf()
	at, empty := t.findSlot(leaf, key)
	if at >= 0 {
		return true, leaf.vals[at].Load(), false
	}
	if empty < 0 {
		return false, 0, false // full: splitting insert
	}
	t.putLocked(n, empty, key, val)
	return true, 0, true
}

// putLocked writes <key, val> into the empty slot i of the locked leaf n
// and publishes the insert record, inside one version window. A simple
// insert linearizes at the second version increment.
func (t *Tree) putLocked(n *node, i int, key, val uint64) {
	leaf := n.leaf()
	s := t.openWindow(leaf)
	leaf.vals[i].Store(val)
	leaf.keys[i].Store(key)
	t.closeWindow(leaf, s+1, i, RecInsert)
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
func (t *Tree) closeWindow(l *leaf, state uint32, i int, k RecKind) {
	if t.elim {
		state = state&^RecMask | PackRec(i, k)
	}
	l.state.Store(state)
	l.ver.Add(1)
}

// Delete removes key if present, returning its value and true; otherwise
// it returns (0, false) and leaves the tree unchanged (paper §3.2).
func (th *Thread) Delete(key uint64) (uint64, bool) {
	abalg.CheckKey(key)
	t := th.t
	for {
		leaf := t.search(key, nil).N

		if t.elim {
			_, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && !found {
				return 0, false
			}
			acquired, _ := th.lockOrElimKind(leaf, key, OpDelete)
			if !acquired {
				// Eliminated deletes always return ⊥ (§4.1): linearized
				// just before the record's insert, or just after the
				// record's delete — either way the key is absent.
				t.elimDeletes.Add(1)
				return 0, false
			}
		} else {
			if _, found := t.leafSearch(leaf, key); !found {
				return 0, false
			}
			th.Lock(leaf)
		}

		if leaf.isMarked() {
			th.UnlockAll()
			continue
		}

		val, found, newSize := t.deleteLocked(leaf, key)
		th.UnlockAll()
		if !found {
			// Removed by a concurrent delete between search and lock.
			return 0, false
		}
		if newSize < t.a {
			abalg.FixUnderfull(th, leaf)
		}
		return val, true
	}
}

// deleteLocked performs the locked phase of a delete inside one version
// window: clear the key's slot or, on an Elim-ABtree, publish the delete
// record, which leaves the pair in place as the leaf's tombstone (delete
// logically now, physically at the leaf's next window). The caller holds
// the leaf's lock.
func (t *Tree) deleteLocked(n *node, key uint64) (val uint64, found bool, newSize int) {
	leaf := n.leaf()
	idx := t.slotOf(leaf, key)
	if idx < 0 {
		return 0, false, leaf.size()
	}
	val = leaf.vals[idx].Load()
	s := t.openWindow(leaf) - 1
	if !t.elim {
		leaf.keys[idx].Store(emptyKey)
	}
	t.closeWindow(leaf, s, idx, RecDelete)
	return val, true, int(s & SizeMask)
}
