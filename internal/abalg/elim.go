package abalg

// Publishing elimination (paper §4.1), shared by both stores: the
// pre-lock wait that eliminates against a leaf's record (lockOrElim),
// which operation published the record, which operation is trying to
// eliminate against it, and the slot-record encoding both stores keep in
// spare bits of a leaf's size word.
//
// The paper's §7 ("Future work") extension adds an insert with replace
// semantics that returns no value (Upsert) — "publishing elimination
// does not require any modifications: the thread that successfully
// modifies the data structure is linearized last". Supporting it
// alongside the original insert/delete requires the record to say *what
// kind* of operation published it, because the legal linearization
// orders differ:
//
//	record kind →     insert           delete           replace
//	eliminated op ↓
//	Insert            after, rec.Val   before, rec.Val  after, rec.Val
//	Delete            before, ⊥        after, ⊥         —
//	Upsert            —                —                before, void
//
// An eliminated Insert can always linearize adjacent to the publisher:
// after an insert or replace (key present with rec.Val), or just before
// a delete (returning the value the delete removed — the paper's §4
// rule). An eliminated Delete linearizes just before an insert or just
// after a delete (key absent either way, return ⊥); it cannot eliminate
// against a replace record, whose before/after states both have the key
// present. An eliminated Upsert linearizes just before a replace
// publisher (its value is immediately overwritten and never observed);
// it cannot eliminate against an insert record, because the key must be
// absent immediately before a successful insert, nor against a delete
// record, because Delete reports the value it removed and the publisher
// has already returned the older one.

// lockOrElim is Lock's loop with a record check before each TryLock: it
// spins until it either holds the leaf's lock or finds a record
// published after op started that op may eliminate against
// (CanEliminate): startVer is a version of the leaf read after op
// started, and the record's publisher installed ver >= startVer, so its
// linearization point fell inside op's interval. It then counts op as
// eliminated and returns false and the record's value.
func lockOrElim[R comparable](s Store[R], leaf R, key uint64, op OpKind, startVer uint64) (locked bool, val uint64) {
	for spins := 0; ; SpinPause(&spins) {
		rkey, rval, kind, ver := s.Record(leaf)
		if startVer <= ver && rkey == key && CanEliminate(op, kind) {
			s.Eliminated(op)
			return false, rval
		}
		if s.TryLock(leaf) {
			return true, 0
		}
	}
}

// RecKind identifies the operation that published a leaf's slot record
// (Store.Record).
type RecKind uint8

const (
	// RecInsert: a simple insert added the key.
	RecInsert RecKind = iota
	// RecDelete: a successful delete removed the key.
	RecDelete
	// RecReplace: an upsert overwrote the value of a present key.
	RecReplace
)

// OpKind identifies the operation attempting elimination.
type OpKind uint8

const (
	OpInsert OpKind = iota
	OpDelete
	OpUpsert
)

// CanEliminate applies the compatibility matrix above.
func CanEliminate(op OpKind, rec RecKind) bool {
	switch op {
	case OpInsert:
		return true
	case OpDelete:
		return rec == RecInsert || rec == RecDelete
	default: // OpUpsert
		return rec == RecReplace
	}
}

// A leaf's size word, in both stores:
//
//	bits 0-3   the leaf's number of non-empty keys (SizeMask)
//	bits 4-9   its slot record (RecMask; Elim trees only)
//
// The slot record is the paper's ElimRecord (§4.1) at zero bytes: the
// slot the leaf's latest publishing update wrote, plus one (0: none),
// and that update's RecKind; Store.Record serves it. The record's key
// and value are read from the leaf between two equal even version
// loads; its Ver is that even version minus one. The implied Ver is
// exact because every version window on an unmarked leaf publishes
// (PutLocked, DeleteLocked) and every window that does not — a
// structural replacement — also marks the leaf, and a marked leaf's
// record is never served.
const (
	SizeMask = 1<<recShift - 1
	RecMask  = 1<<(recShift+6) - 1 - SizeMask

	recShift = 4
)

// A leaf's size must fit below the slot record.
const _ uint = SizeMask - MaxCap

// PackRec returns the slot record of an update of kind k that wrote slot
// i.
func PackRec(i int, k RecKind) uint32 {
	return uint32(i+1)<<recShift | uint32(k)<<(recShift+4)
}

// UnpackRec decodes the slot record in a size word; i < 0 means none.
func UnpackRec(w uint32) (i int, k RecKind) {
	return int(w>>recShift&0xf) - 1, RecKind(w >> (recShift + 4) & 3)
}
