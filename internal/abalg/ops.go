package abalg

// The per-key operations (paper §3.2, §4.1 and §7): the lock-free
// descent, Find's double collect, and Insert, Delete and Upsert over the
// pre-lock phase (lockLeaf) and the Store's two locked-leaf writes,
// PutLocked and DeleteLocked, each one version window. The descent is a
// Route loop and every lock-free read of a leaf one AppendLeaf of key's
// pair alone into the Thread's scratch, so both stores' descents, double
// collects and elimination share this code. The parent a splitting
// insert needs is re-derived by a Search under the leaf's lock, not
// carried from the descent: a Path result through the seam on every
// operation measured slower (EXPERIMENTS.md, "Point operations through
// the seam").

// Search descends lock-free from the entry toward key, stopping at a
// leaf or at target, whichever comes first (paper Figure 2): one Route
// per internal node visited.
func Search[R comparable](s Store[R], key uint64, target R) Path[R] {
	p := Path[R]{N: s.Entry()}
	for leaf := false; !leaf && p.N != target; {
		p.GP, p.P, p.PIdx = p.P, p.N, p.NIdx
		p.N, p.NIdx, _, _, leaf = s.Route(p.P, key, 0, unbounded)
	}
	return p
}

// descend is Search to key's leaf without the Path: the descent of Find
// and of every update's pre-lock phase. Carrying the parent, grandparent
// and indices through the loop read 12-20 % slower per Find
// (EXPERIMENTS.md, "One descent for both trees").
func descend[R comparable](s Store[R], key uint64) R {
	n, leaf := s.Entry(), false
	for !leaf {
		n, _, _, _, leaf = s.Route(n, key, 0, unbounded)
	}
	return n
}

// Find returns the value associated with key, if present (paper §3.2).
// Finds take no locks and never restart from the root.
func Find[R comparable](s Store[R], key uint64) (uint64, bool) {
	CheckKey(key)
	return searchLeaf(s, descend(s, key), key)
}

// searchLeaf is the OCC double collect (paper Figure 2): scanLeaf until
// a pass is consistent.
func searchLeaf[R comparable](s Store[R], leaf R, key uint64) (uint64, bool) {
	for spins := 0; ; SpinPause(&spins) {
		if val, found, ok, _ := scanLeaf(s, leaf, key); ok {
			return val, found
		}
	}
}

// scanLeaf is one optimistic pass over the leaf for key: ok reports that
// no version window overlapped it, and ver is the leaf's version before
// it. A key in a tombstone is absent (AppendLeaf skips it).
func scanLeaf[R comparable](s Store[R], leaf R, key uint64) (val uint64, found, ok bool, ver uint64) {
	items, before, after, _, _, _ := s.AppendLeaf(leaf, s.Scratch().Items[:0], key, key)
	if len(items) > 0 {
		val, found = items[0].V, true
	}
	return val, found, before == after && before&1 == 0, before
}

// lockLeaf descends to key's leaf and runs op's pre-lock phase. It
// returns the leaf locked, or locked == false with op's result in val if
// op was decided without the lock: an OpInsert's key present (val is its
// value), an OpDelete's absent, or op eliminated (val is the record's
// value). The OCC tree double-collects, then locks; the Elim tree scans
// once and, unless that pass decided op, goes to lockOrElim with the
// pass's version as op's start version (§4.1). An upsert decides nothing
// before the lock; on the Elim tree its pass only reads that version.
func lockLeaf[R comparable](s Store[R], key uint64, op OpKind) (leaf R, locked bool, val uint64) {
	leaf = descend(s, key)
	if !s.Elim() {
		if op != OpUpsert {
			if v, found := searchLeaf(s, leaf, key); found == (op == OpInsert) {
				return leaf, false, v
			}
		}
		Lock(s, leaf)
		return leaf, true, 0
	}
	v, found, ok, startVer := scanLeaf(s, leaf, key)
	if ok && op != OpUpsert && found == (op == OpInsert) {
		return leaf, false, v
	}
	locked, val = lockOrElim(s, leaf, key, op, startVer)
	return leaf, locked, val
}

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
		leaf, locked, v := lockLeaf(s, key, op)
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
		leaf, locked, _ := lockLeaf(s, key, OpDelete)
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
	path := Search(s, key, leaf)
	if path.N != leaf {
		return false
	}
	Lock(s, path.P)
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
