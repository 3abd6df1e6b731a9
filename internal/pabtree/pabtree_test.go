package pabtree

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/xrand"
)

// arena returns a fresh arena big enough for the tests (64k node slots).
func arena() *pmem.Arena { return pmem.New(64 * 1024 * NodeWords) }

func both(t *testing.T, fn func(t *testing.T, tr *Tree)) {
	t.Helper()
	t.Run("pOCC", func(t *testing.T) { fn(t, New(arena())) })
	t.Run("pElim", func(t *testing.T) { fn(t, New(arena(), WithElimination())) })
}

func TestEmptyTree(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		if _, ok := th.Find(1); ok {
			t.Fatal("Find on empty tree returned ok")
		}
		if _, ok := th.Delete(1); ok {
			t.Fatal("Delete on empty tree returned ok")
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := tr.ValidatePersisted(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertFindDelete(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		if old, ins := th.Insert(10, 100); !ins || old != 0 {
			t.Fatalf("Insert = (%d, %v)", old, ins)
		}
		if v, ok := th.Find(10); !ok || v != 100 {
			t.Fatalf("Find = (%d, %v)", v, ok)
		}
		if old, ins := th.Insert(10, 999); ins || old != 100 {
			t.Fatalf("re-Insert = (%d, %v)", old, ins)
		}
		if v, ok := th.Delete(10); !ok || v != 100 {
			t.Fatalf("Delete = (%d, %v)", v, ok)
		}
		if _, ok := th.Find(10); ok {
			t.Fatal("Find after Delete")
		}
	})
}

func TestSequentialBulkAndPersistence(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		const n = 8000
		for i := uint64(1); i <= n; i++ {
			th.Insert(i, i*2)
		}
		for i := uint64(1); i <= n; i += 2 {
			th.Delete(i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// Every durable field must already be persisted at quiescence.
		if err := tr.ValidatePersisted(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n/2 {
			t.Fatalf("Len = %d", tr.Len())
		}
		for i := uint64(1); i <= n; i++ {
			v, ok := th.Find(i)
			if want := i%2 == 0; ok != want || (ok && v != i*2) {
				t.Fatalf("Find(%d) = (%d, %v)", i, v, ok)
			}
		}
	})
}

func TestModelRandomOps(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		rng := xrand.New(7)
		model := make(map[uint64]uint64)
		for i := 0; i < 40000; i++ {
			k := 1 + rng.Uint64n(600)
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				old, ins := th.Insert(k, v)
				mv, present := model[k]
				if ins == present || (present && old != mv) {
					t.Fatalf("op %d Insert(%d) mismatch", i, k)
				}
				if !present {
					model[k] = v
				}
			case 1:
				old, del := th.Delete(k)
				mv, present := model[k]
				if del != present || (present && old != mv) {
					t.Fatalf("op %d Delete(%d) mismatch", i, k)
				}
				delete(model, k)
			case 2:
				v, ok := th.Find(k)
				mv, present := model[k]
				if ok != present || (present && v != mv) {
					t.Fatalf("op %d Find(%d) mismatch", i, k)
				}
			}
			if i%10000 == 9999 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if err := tr.ValidatePersisted(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
		}
	})
}

// TestSlotRecycling verifies that churn does not leak arena slots: with
// epoch reclamation working, the bump-allocation high-water mark must stay
// far below what leak-per-split would consume.
func TestSlotRecycling(t *testing.T) {
	a := pmem.New(16 * 1024 * NodeWords)
	tr := New(a)
	th := tr.NewThread()
	rng := xrand.New(3)
	for i := 0; i < 200000; i++ {
		k := 1 + rng.Uint64n(300)
		if rng.Uint64n(2) == 0 {
			th.Insert(k, k)
		} else {
			th.Delete(k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	slotsUsed := a.Allocated() / NodeWords
	// ~300 keys need ~60 leaves; thousands of splits/merges happened. If
	// recycling were broken the bump allocator would have consumed tens of
	// thousands of slots.
	if slotsUsed > 2000 {
		t.Fatalf("bump allocator used %d slots; recycling appears broken", slotsUsed)
	}
}

func TestFlushCountsPerOp(t *testing.T) {
	// A pair shares a cache line, so every in-place update is one flush
	// and one fence: the pair's line for an insert, the ⊥ key's for a
	// delete, the value's for a replace. Verify on a quiet tree.
	tr := New(arena())
	th := tr.NewThread()
	for i := uint64(2); i <= 20; i += 2 {
		th.Insert(i, i) // prefill, leaves half-full
	}
	a := tr.Arena()
	for _, c := range []struct {
		name string
		op   func()
		want uint64
	}{
		{"simple insert", func() { th.Insert(3, 3) }, 1},
		{"successful delete", func() { th.Delete(3) }, 1},
		{"inserting upsert", func() { th.Upsert(5, 5) }, 1},
		{"replacing upsert", func() { th.Upsert(5, 6) }, 1},
		{"failed delete", func() { th.Delete(999) }, 0},
		{"failed insert", func() { th.Insert(4, 4) }, 0},
	} {
		before := a.Stats()
		c.op()
		after := a.Stats()
		if got := after.Flushes - before.Flushes; got != c.want {
			t.Errorf("%s issued %d flushes, want %d", c.name, got, c.want)
		}
		if got := after.Fences - before.Fences; got != c.want {
			t.Errorf("%s issued %d fences, want %d", c.name, got, c.want)
		}
	}
}

func TestFreshArenaRequired(t *testing.T) {
	a := arena()
	a.Alloc(NodeWords)
	defer func() {
		if recover() == nil {
			t.Fatal("New on used arena did not panic")
		}
	}()
	New(a)
}

func TestUpsertPersistent(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		th.Upsert(5, 50)
		th.Upsert(5, 51)
		if v, ok := th.Find(5); !ok || v != 51 {
			t.Fatalf("Find = (%d,%v)", v, ok)
		}
		for i := uint64(1); i <= 3000; i++ {
			th.Upsert(i, i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := tr.ValidatePersisted(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUpsertReplaceDurable: a completed value replace must survive a
// crash that loses all unflushed lines (the single value-word flush is
// the commit point).
func TestUpsertReplaceDurable(t *testing.T) {
	a := arena()
	tr := New(a)
	th := tr.NewThread()
	for i := uint64(1); i <= 500; i++ {
		th.Insert(i, i)
	}
	for i := uint64(1); i <= 500; i += 2 {
		th.Upsert(i, i*100) // replace odd keys' values
	}
	a.Crash(0, 5)
	rt := Recover(a)
	rth := rt.NewThread()
	for i := uint64(1); i <= 500; i++ {
		want := i
		if i%2 == 1 {
			want = i * 100
		}
		if v, ok := rth.Find(i); !ok || v != want {
			t.Fatalf("key %d after crash: (%d,%v), want %d", i, v, ok, want)
		}
	}
}

func TestRangePersistent(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		for i := uint64(1); i <= 2000; i++ {
			th.Insert(i*2, i)
		}
		var got []uint64
		th.Range(100, 200, func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != 51 { // 100, 102, ..., 200
			t.Fatalf("Range returned %d keys, want 51", len(got))
		}
		for i, k := range got {
			if k != 100+uint64(i)*2 {
				t.Fatalf("Range[%d] = %d", i, k)
			}
		}
		// Early stop.
		n := 0
		th.Range(1, 4000, func(_, _ uint64) bool { n++; return n < 10 })
		if n != 10 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}
