package pabtree

import (
	"testing"

	"repro/internal/pmem"
	"repro/internal/xrand"
)

// arena returns a fresh arena big enough for the tests (64k node slots).
func arena() *pmem.Arena { return pmem.New(64 * 1024 * NodeWords) }

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

// TestEpochLimboBounded: one thread deleting and re-inserting 8-key
// blocks of a 40-key tree at degree (2,4) splits and merges leaves on
// every round, retiring a node slot each time. Its limbo must reach the
// free list within a few generations, so the run fits an arena of 128
// slots — about five times the tree's live nodes. With the epoch
// advanced only every 64 operations, the same run bumped 219 slots.
func TestEpochLimboBounded(t *testing.T) {
	const slots = 128
	a := pmem.New(slots * NodeWords)
	tr := New(a, WithDegree(2, 4))
	th := tr.NewThread()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("churn in a %d-slot arena: %v", slots, r)
		}
	}()
	for k := uint64(1); k <= 40; k++ {
		th.Insert(k, k)
	}
	for round := 0; round < 2000; round++ {
		lo := 1 + uint64(round%5)*8
		for k := lo; k < lo+8; k++ {
			th.Delete(k)
		}
		for k := lo; k < lo+8; k++ {
			th.Insert(k, k)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("bumped %d of %d slots", a.Allocated()/NodeWords, slots)
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
