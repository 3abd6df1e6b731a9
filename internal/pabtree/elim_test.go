package pabtree

// Publishing elimination on the p-Elim-ABtree, white-box (mirrors
// internal/core/elim_test.go). The store encodes a delete record
// differently from core's: a durable delete persists ⊥ in its slot's key
// word, so the record's key lives in vnode.delKey. These tests pin that
// encoding against concurrent operations.

import (
	"testing"
	"time"

	"repro/internal/abalg"
	"repro/internal/pmem"
)

// elimArena is a fresh arena for one of these one-leaf trees.
func elimArena() *pmem.Arena { return pmem.New(1024 * NodeWords) }

// openPublishingWindow performs the first half of a publishing update of
// kind k by hand on behalf of pub: it locks key's leaf and opens the
// version window (ver odd). The returned finish performs the second half
// with the store's flush discipline — persists the pair (insert), the
// value word (replace) or the ⊥ key with delKey (delete), stores the
// slot record, closes the window — and unlocks.
func openPublishingWindow(tr *Tree, pub *Thread, key, val uint64, k abalg.RecKind) (finish func()) {
	leaf := abalg.Search[uint64](pub, key, 0).N
	pub.Lock(leaf)
	lv := tr.vn(leaf)
	at, empty := tr.findSlot(leaf, key)
	lv.ver.Add(1)
	tr.rqStamp(leaf)
	return func() {
		s := lv.size.Load()
		switch k {
		case abalg.RecInsert:
			at = empty
			tr.persistPair(leaf, at, key, val)
			s++
		case abalg.RecDelete:
			lv.delKey.Store(key)
			tr.arena.Store(leafKeyOff(leaf, at), emptyKey)
			tr.arena.Flush(leafKeyOff(leaf, at))
			s--
		case abalg.RecReplace:
			tr.arena.Store(leafValOff(leaf, at), val)
			tr.arena.Flush(leafValOff(leaf, at))
		}
		tr.closeWindow(lv, s, at, k)
		pub.UnlockAll()
	}
}

// TestPublishingEliminationDeterministic constructs the paper's Figure 11
// scenario by hand: an in-progress simple insert has locked a leaf and
// incremented its version to an odd value; it publishes its slot record
// when it closes the window. Operations on the same key that *start*
// during this window must eliminate themselves once the publisher
// finishes: the insert returns the record's value, the delete returns ⊥,
// and neither touches the tree.
func TestPublishingEliminationDeterministic(t *testing.T) {
	tr := New(elimArena(), WithElimination())
	pub := tr.NewThread()
	finish := openPublishingWindow(tr, pub, 7, 42, abalg.RecInsert)

	type result struct {
		v  uint64
		ok bool
	}
	insRes, delRes := make(chan result, 1), make(chan result, 1)
	go func() {
		v, ok := tr.NewThread().Insert(7, 99)
		insRes <- result{v, ok}
	}()
	go func() {
		v, ok := tr.NewThread().Delete(7)
		delRes <- result{v, ok}
	}()
	time.Sleep(100 * time.Millisecond) // let both reach lockOrElim
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
	if v, ok := pub.Find(7); !ok || v != 42 {
		t.Fatalf("Find(7) = (%d, %v), want (42, true)", v, ok)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidatePersisted(); err != nil {
		t.Fatal(err)
	}
}

// TestUpsertEliminationMatrix verifies the §7 compatibility matrix
// (abalg/elim.go) on the persistent store: a publisher of each record
// kind is frozen mid-update while one concurrent operation starts inside
// the window; after the publisher completes, the operation must have
// eliminated exactly when the matrix allows. The RecDelete rows are the
// ones that read delKey.
func TestUpsertEliminationMatrix(t *testing.T) {
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
		tr := New(elimArena(), WithElimination())
		pub := tr.NewThread()
		// For delete/replace records the key must be present beforehand.
		if tc.rec != abalg.RecInsert {
			pub.Insert(7, 1)
		}
		finish := openPublishingWindow(tr, pub, 7, 42, tc.rec)

		done := make(chan struct{})
		go func() {
			defer close(done)
			th := tr.NewThread()
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
		if err := tr.ValidatePersisted(); err != nil {
			t.Errorf("rec=%d op=%d: %v", tc.rec, tc.op, err)
		}
	}
}
