package core

import (
	"testing"
	"time"

	"repro/internal/abalg"
	"repro/internal/pabtree"
	"repro/internal/pmem"
)

// openPublishingWindow performs the first half of a publishing update of
// kind k by hand on behalf of pub: it locks key's leaf and opens the
// version window (ver odd). The returned finish performs the second half
// — writes the slot (insert, replace) or leaves it as the tombstone
// (delete), stores the slot record, closes the window — and unlocks.
func openPublishingWindow(tr *Tree, pub *Thread, key, val uint64, k abalg.RecKind) (finish func()) {
	n := abalg.Search[*node](pub, key, nil).N
	pub.Lock(n)
	l := n.leaf()
	at, empty := tr.findSlot(l, key)
	s := tr.openWindow(l)
	return func() {
		switch k {
		case abalg.RecInsert:
			at = empty
			l.vals[at].Store(val)
			l.keys[at].Store(key)
			s++
		case abalg.RecDelete:
			s--
		case abalg.RecReplace:
			l.vals[at].Store(val)
		}
		tr.closeWindow(l, s, at, k)
		pub.UnlockAll()
	}
}

// TestPublishingEliminationDeterministic constructs the paper's Figure 11
// scenario by hand: an in-progress simple insert has locked a leaf and
// incremented its version to an odd value; it publishes its slot record
// when it closes the window. Operations on the same key that *start*
// during this window (their start version <= rec.Ver) must eliminate
// themselves once the publisher finishes: the insert returns the record's
// value, the delete returns ⊥, and neither touches the tree.
func TestPublishingEliminationDeterministic(t *testing.T) {
	tr := New(WithElimination())

	// The publisher: manually perform the first half of insert(7, 42).
	pub := tr.NewThread()
	finish := openPublishingWindow(tr, pub, 7, 42, abalg.RecInsert)

	// Concurrent operations on key 7 start inside the window. Both will
	// spin in lockOrElim until the publisher's second increment, then
	// must eliminate rather than lock.
	insRes := make(chan [2]uint64, 1)
	delRes := make(chan [2]uint64, 1)
	go func() {
		th := tr.NewThread()
		v, ins := th.Insert(7, 99)
		insRes <- [2]uint64{v, b2u(ins)}
	}()
	go func() {
		th := tr.NewThread()
		v, del := th.Delete(7)
		delRes <- [2]uint64{v, b2u(del)}
	}()
	time.Sleep(100 * time.Millisecond) // let both reach lockOrElim

	// Publisher completes the insert: write the pair and its slot record,
	// make the version even (the linearization point), unlock.
	finish()

	ins := <-insRes
	if ins[0] != 42 || ins[1] != 0 {
		t.Fatalf("concurrent insert returned (%d, %v), want (42, false): must "+
			"linearize right after the published insert", ins[0], ins[1] == 1)
	}
	del := <-delRes
	if del[1] != 0 || del[0] != 0 {
		t.Fatalf("concurrent delete returned (%d, %v), want (0, false): "+
			"eliminated deletes return ⊥", del[0], del[1] == 1)
	}

	ei, ed, _ := tr.ElimStats()
	if ei != 1 || ed != 1 {
		t.Fatalf("ElimStats = (%d, %d), want (1, 1): both ops must have "+
			"been eliminated, not executed", ei, ed)
	}

	// The eliminated ops must not have modified the tree: key 7 present
	// with the publisher's value.
	th := tr.NewThread()
	if v, ok := th.Find(7); !ok || v != 42 {
		t.Fatalf("Find(7) = (%d, %v), want (42, true)", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEliminationRequiresOverlap: an operation that starts after the
// publisher completed (start version > rec.Ver) must NOT eliminate — it
// would not have been concurrent with the publisher. The rule is
// abalg's lockOrElim, so the table runs it on both stores; each step
// would eliminate against the record its predecessor left.
func TestEliminationRequiresOverlap(t *testing.T) {
	type store interface {
		Find(key uint64) (uint64, bool)
		Insert(key, val uint64) (uint64, bool)
		Delete(key uint64) (uint64, bool)
		Upsert(key, val uint64)
	}
	pt := pabtree.New(pmem.New(64*pabtree.NodeWords), pabtree.WithElimination())
	ct := New(WithElimination())
	for _, st := range []struct {
		name  string
		th    store
		stats func() (uint64, uint64, uint64)
	}{
		{"core", ct.NewThread(), ct.ElimStats},
		{"pabtree", pt.NewThread(), pt.ElimStats},
	} {
		t.Run(st.name, func(t *testing.T) {
			th := st.th
			th.Insert(7, 42) // completes fully; rec published with some odd ver

			// A later delete must actually delete (not eliminate against
			// the insert record).
			if v, ok := th.Delete(7); !ok || v != 42 {
				t.Fatalf("Delete(7) = (%d, %v), want (42, true)", v, ok)
			}
			if _, ok := th.Find(7); ok {
				t.Fatal("key 7 still present: delete was wrongly eliminated")
			}
			// A later insert must actually insert (not eliminate against
			// the delete record).
			if _, ins := th.Insert(7, 50); !ins {
				t.Fatal("insert wrongly eliminated / found phantom key")
			}
			if v, _ := th.Find(7); v != 50 {
				t.Fatalf("Find(7) = %d, want 50", v)
			}
			// A later upsert must actually replace (not eliminate against
			// the replace record).
			th.Upsert(7, 60)
			th.Upsert(7, 61)
			if v, _ := th.Find(7); v != 61 {
				t.Fatalf("Find(7) = %d after upserts of 60 and 61, want 61", v)
			}
			if i, d, u := st.stats(); i+d+u != 0 {
				t.Fatalf("ElimStats = (%d, %d, %d), want none eliminated", i, d, u)
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
