package storetest

// Publishing elimination (paper §4.1, abalg/elim.go), white-box: a
// publisher frozen inside its version window by a store's Window hook,
// the overlap rule, and the slot record a leaf serves through
// Store.Record.

import (
	"testing"
	"time"

	"repro/internal/abalg"
)

// Window performs the first half of a publishing update of kind k by
// hand on behalf of pub, a Thread of an Elim tree: it locks key's leaf
// and opens the version window (ver odd). The returned finish performs
// the second half with the store's write discipline — writes the slot
// (insert, replace) or empties it (delete), stores the slot record,
// closes the window — and unlocks. Each store supplies its own.
type Window func(pub Handle, key, val uint64, k abalg.RecKind) (finish func())

// PublishingEliminationDeterministic constructs the paper's Figure 11
// scenario by hand on an Elim tree of kind k: an in-progress simple
// insert has locked a leaf and incremented its version to an odd value;
// it publishes its slot record when it closes the window. Operations on
// the same key that *start* during this window (their start version <=
// the record's Ver) must eliminate themselves once the publisher
// finishes: the insert returns the record's value, the delete returns ⊥,
// and neither touches the tree.
func PublishingEliminationDeterministic(t *testing.T, k Kind, open Window) {
	tr := k.Open(2, 11, 1024)
	pub := tr.Thread()
	finish := open(pub, 7, 42, abalg.RecInsert)

	// Concurrent operations on key 7 start inside the window. Both spin
	// in lockOrElim until the publisher's second increment, then must
	// eliminate rather than lock.
	type result struct {
		v  uint64
		ok bool
	}
	insRes, delRes := make(chan result, 1), make(chan result, 1)
	go func() {
		v, ok := tr.Thread().Insert(7, 99)
		insRes <- result{v, ok}
	}()
	go func() {
		v, ok := tr.Thread().Delete(7)
		delRes <- result{v, ok}
	}()
	time.Sleep(100 * time.Millisecond) // let both reach lockOrElim

	// The publisher completes the insert: write the pair and its slot
	// record, make the version even (the linearization point), unlock.
	finish()

	if r := <-insRes; r != (result{42, false}) {
		t.Fatalf("concurrent insert returned %+v, want (42, false): must "+
			"linearize right after the published insert", r)
	}
	if r := <-delRes; r != (result{0, false}) {
		t.Fatalf("concurrent delete returned %+v, want (0, false): "+
			"eliminated deletes return ⊥", r)
	}
	if ei, ed, _ := tr.ElimStats(); ei != 1 || ed != 1 {
		t.Fatalf("ElimStats = (%d, %d), want (1, 1): both ops must have "+
			"been eliminated, not executed", ei, ed)
	}
	// The eliminated ops must not have modified the tree: key 7 present
	// with the publisher's value.
	if v, ok := pub.Find(7); !ok || v != 42 {
		t.Fatalf("Find(7) = (%d, %v), want (42, true)", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// UpsertEliminationMatrix verifies the §7 compatibility matrix
// (abalg/elim.go) with the construction above: a publisher of each
// record kind is frozen mid-update while one concurrent operation starts
// inside the window; after the publisher completes, the operation must
// have eliminated exactly when the matrix allows. Each (record, op)
// pair runs in its own tree so the trial's only published record is the
// one under test.
func UpsertEliminationMatrix(t *testing.T, k Kind, open Window) {
	for _, tc := range []struct {
		rec  abalg.RecKind
		op   abalg.OpKind
		want bool
	}{
		{abalg.RecInsert, abalg.OpInsert, true},
		{abalg.RecInsert, abalg.OpDelete, true},
		{abalg.RecInsert, abalg.OpUpsert, false},
		{abalg.RecDelete, abalg.OpInsert, true},
		{abalg.RecDelete, abalg.OpDelete, true},
		{abalg.RecDelete, abalg.OpUpsert, false},
		{abalg.RecReplace, abalg.OpInsert, true},
		{abalg.RecReplace, abalg.OpDelete, false},
		{abalg.RecReplace, abalg.OpUpsert, true},
	} {
		tr := k.Open(2, 11, 1024)
		pub := tr.Thread()
		// For delete/replace records the key must be present beforehand.
		if tc.rec != abalg.RecInsert {
			pub.Insert(7, 1)
		}
		finish := open(pub, 7, 42, tc.rec)

		done := make(chan struct{})
		go func() {
			defer close(done)
			th := tr.Thread()
			switch tc.op {
			case abalg.OpInsert:
				th.Insert(7, 100)
			case abalg.OpDelete:
				th.Delete(7)
			case abalg.OpUpsert:
				th.Upsert(7, 200)
			}
		}()
		time.Sleep(60 * time.Millisecond) // let the op reach lockOrElim
		finish()
		<-done

		ei, ed, eu := tr.ElimStats()
		if got := ei+ed+eu == 1; got != tc.want {
			t.Errorf("rec=%d op=%d: eliminated=%v, matrix says %v", tc.rec, tc.op, got, tc.want)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("rec=%d op=%d: %v", tc.rec, tc.op, err)
		}
	}
}

// EliminationRequiresOverlap: an operation that starts after the
// publisher completed (start version > the record's Ver) must NOT
// eliminate — it would not have been concurrent with the publisher.
// Each step would eliminate against the record its predecessor left.
func EliminationRequiresOverlap(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, 64, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		th.Insert(7, 42) // completes fully; rec published with some odd ver

		// A later delete must actually delete (not eliminate against the
		// insert record).
		if v, ok := th.Delete(7); !ok || v != 42 {
			t.Fatalf("Delete(7) = (%d, %v), want (42, true)", v, ok)
		}
		if _, ok := th.Find(7); ok {
			t.Fatal("key 7 still present: delete was wrongly eliminated")
		}
		// A later insert must actually insert (not eliminate against the
		// delete record).
		if _, ins := th.Insert(7, 50); !ins {
			t.Fatal("insert wrongly eliminated / found phantom key")
		}
		if v, _ := th.Find(7); v != 50 {
			t.Fatalf("Find(7) = %d, want 50", v)
		}
		// A later upsert must actually replace (not eliminate against the
		// replace record).
		th.Upsert(7, 60)
		th.Upsert(7, 61)
		if v, _ := th.Find(7); v != 61 {
			t.Fatalf("Find(7) = %d after upserts of 60 and 61, want 61", v)
		}
		if i, d, u := tr.ElimStats(); i+d+u != 0 {
			t.Fatalf("ElimStats = (%d, %d, %d), want none eliminated", i, d, u)
		}
	})
}

// SlotRecord round-trips the slot record through the root leaf of the
// Elim tree whose Thread is s: each publishing update's record is the
// pair it wrote (a delete's too, though its slot is emptied), Ver is
// implied by the leaf's version, and a marked leaf serves none.
func SlotRecord[R comparable](t *testing.T, s abalg.Store[R]) {
	type record struct {
		key, val uint64
		kind     abalg.RecKind
		ver      uint64
	}
	th := any(s).(Handle)
	_, b := s.Degree()
	leaf := abalg.Search(s, 1, *new(R)).N
	steps := []struct {
		name string
		op   func()
		want record
	}{
		{"fresh leaf", func() {}, record{}},
		{"insert", func() { th.Insert(1, 2) }, record{1, 2, abalg.RecInsert, 1}},
		{"replace", func() { th.Upsert(1, 3) }, record{1, 3, abalg.RecReplace, 3}},
		{"delete", func() { th.Delete(1) }, record{1, 3, abalg.RecDelete, 5}},
		{"insert after delete", func() { th.Insert(9, 8) }, record{9, 8, abalg.RecInsert, 7}},
		{"split", func() {
			for k := uint64(10); k < uint64(10+b); k++ {
				th.Insert(k, k)
			}
		}, record{}},
	}
	for _, st := range steps {
		st.op()
		var r record
		if r.key, r.val, r.kind, r.ver = s.Record(leaf); r != st.want {
			t.Errorf("after %s: record %+v, want %+v", st.name, r, st.want)
		}
	}
	if !s.Marked(leaf) {
		t.Fatal("the root leaf did not split")
	}
}
