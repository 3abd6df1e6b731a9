package abalg

// The per-key updates (paper §3.2, §4.1 and §7), written once over the
// Store's three locked-leaf steps: LockLeaf descends and runs the
// pre-lock phase (so the loop has no OCC/Elim branch), PutLocked and
// DeleteLocked write the locked leaf in one version window. The parent a
// splitting insert needs is re-derived by a Search under the leaf's
// lock, not carried from the descent: a Path result through the seam on
// every operation measured slower (EXPERIMENTS.md, "Point operations
// through the seam").

// Insert inserts <key, val> if key is absent and returns (0, true). If
// key is present the tree is unchanged and Insert returns the existing
// value and false (the paper's insert semantics, §3).
func Insert[R comparable](s Store[R], key, val uint64) (old uint64, inserted bool) {
	CheckKey(key)
	return put(s, key, val, OpInsert)
}

// Upsert sets key's value to val, inserting the key if absent. It
// returns nothing: the §7 analysis (elim.go) shows that exactly this
// signature composes with publishing elimination.
func Upsert[R comparable](s Store[R], key, val uint64) {
	CheckKey(key)
	put(s, key, val, OpUpsert)
}

// put is Insert (op OpInsert) and Upsert (OpUpsert, which replaces a
// present key's value).
func put[R comparable](s Store[R], key, val uint64, op OpKind) (old uint64, inserted bool) {
	for {
		leaf, locked, v := s.LockLeaf(key, op)
		if !locked {
			// An insert that found key present, or an eliminated op: an
			// insert linearizes immediately after the record's operation,
			// with key (momentarily) present; an upsert immediately before
			// it, its value overwritten without ever being observed.
			return v, false
		}
		old, inserted, full, marked := s.PutLocked(leaf, key, val, op == OpUpsert)
		if !full && !marked {
			s.UnlockAll()
			return old, inserted
		}
		if !marked && split(s, leaf, key, val) {
			return 0, true
		}
		s.UnlockAll()
	}
}

// Delete removes key if present, returning its value and true; otherwise
// it returns (0, false) and leaves the tree unchanged (paper §3.2).
func Delete[R comparable](s Store[R], key uint64) (val uint64, found bool) {
	CheckKey(key)
	for {
		leaf, locked, _ := s.LockLeaf(key, OpDelete)
		if !locked {
			// Absent, or eliminated: an eliminated delete linearizes just
			// before the record's insert or just after its delete, so the
			// key is absent either way (§4.1).
			return 0, false
		}
		val, found, size, marked := s.DeleteLocked(leaf, key)
		s.UnlockAll()
		if marked {
			continue
		}
		// !found: removed by a concurrent delete between the pre-lock
		// read and the lock.
		if a, _ := s.Degree(); found && size < a {
			FixUnderfull(s, leaf)
		}
		return val, found
	}
}

// split is the splitting insert of <key, val> into the full, locked,
// unmarked leaf (never published or eliminated, like the paper's). It
// re-derives the leaf's parent, locks it (bottom-to-top order) and
// replaces the leaf; the insert linearizes at the parent's pointer
// write. It returns false, still holding the leaf's lock, if the parent
// has changed: the caller unlocks and retries.
func split[R comparable](s Store[R], leaf R, key, val uint64) bool {
	path := s.Search(key, leaf)
	if path.N != leaf {
		return false
	}
	s.Lock(path.P)
	if s.Marked(path.P) {
		return false
	}
	tagged := SplitInsert(s, leaf, path.P, path.NIdx, key, val)
	s.UnlockAll()
	var none R
	if tagged != none {
		FixTagged(s, tagged)
	}
	return true
}
