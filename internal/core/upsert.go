package core

// This file implements the paper's §7 ("Future work") extension: an
// insert with replace semantics that returns no value — "publishing
// elimination does not require any modifications: the thread that
// successfully modifies the data structure is linearized last".
//
// Supporting Upsert alongside the original insert/delete requires the
// elimination record to say *what kind* of operation published it,
// because the legal linearization orders differ:
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

import "repro/internal/abalg"

// RecKind identifies the operation that published an ElimRecord — the
// decoded form of a leaf's slot record (node.go).
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

// Upsert sets key's value to val, inserting the key if absent. It
// returns nothing: the §7 analysis shows that exactly this signature
// composes with publishing elimination (an upsert that would have to
// report the replaced value would need record chaining).
func (th *Thread) Upsert(key, val uint64) {
	abalg.CheckKey(key)
	t := th.t
	for {
		path := t.search(key, nil)
		n := path.N
		leaf := n.leaf()

		if t.elim {
			acquired, _ := th.lockOrElimKind(n, key, OpUpsert)
			if !acquired {
				// Eliminated: linearized immediately before the publisher;
				// our value is overwritten without ever being observed.
				t.elimUpserts.Add(1)
				return
			}
		} else {
			th.Lock(n)
		}

		if leaf.isMarked() {
			th.UnlockAll()
			continue
		}

		at, empty := t.findSlot(leaf, key)
		switch {
		case at >= 0:
			// Replace in place.
			s := t.openWindow(leaf)
			leaf.vals[at].Store(val)
			t.closeWindow(leaf, s, at, RecReplace)
			th.UnlockAll()
			return
		case empty >= 0:
			// Insert into an empty slot (publishes an insert record: the
			// key was absent before this operation).
			t.putLocked(n, empty, key, val)
			th.UnlockAll()
			return
		default:
			// Full leaf: splitting insert (never published/eliminated,
			// like the paper's splitting inserts).
			parent := path.P
			th.Lock(parent)
			if parent.isMarked() {
				th.UnlockAll()
				continue
			}
			taggedNode := abalg.SplitInsert(th, n, parent, path.NIdx, key, val)
			th.UnlockAll()
			if taggedNode != nil {
				abalg.FixTagged(th, taggedNode)
			}
			return
		}
	}
}

// lockOrElimKind generalizes lockOrElim with the op/record compatibility
// matrix. The paper's original operations use the original pairs.
func (th *Thread) lockOrElimKind(n *node, key uint64, op OpKind) (acquired bool, val uint64) {
	leaf := n.leaf()
	startVer := leaf.ver.Load()
	spins := 0
	for {
		rec := leaf.record(&spins)
		if startVer <= rec.Ver && rec.Key == key && CanEliminate(op, rec.Kind) {
			return false, rec.Val
		}
		if th.tryLockNode(n) {
			return true, 0
		}
		abalg.SpinPause(&spins)
	}
}
