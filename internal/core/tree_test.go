package core

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// both runs a subtest against the OCC-ABtree and the Elim-ABtree: every
// behavioural test must hold for both trees.
func both(t *testing.T, fn func(t *testing.T, tr *Tree)) {
	t.Helper()
	t.Run("OCC", func(t *testing.T) { fn(t, New()) })
	t.Run("Elim", func(t *testing.T) { fn(t, New(WithElimination())) })
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
		if tr.Len() != 0 {
			t.Fatalf("Len = %d, want 0", tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertFindDelete(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		if old, inserted := th.Insert(10, 100); !inserted || old != 0 {
			t.Fatalf("Insert(10) = (%d, %v), want (0, true)", old, inserted)
		}
		if v, ok := th.Find(10); !ok || v != 100 {
			t.Fatalf("Find(10) = (%d, %v), want (100, true)", v, ok)
		}
		// Insert of an existing key returns the existing value, unchanged.
		if old, inserted := th.Insert(10, 999); inserted || old != 100 {
			t.Fatalf("re-Insert(10) = (%d, %v), want (100, false)", old, inserted)
		}
		if v, _ := th.Find(10); v != 100 {
			t.Fatalf("value changed by failed insert: %d", v)
		}
		if v, ok := th.Delete(10); !ok || v != 100 {
			t.Fatalf("Delete(10) = (%d, %v), want (100, true)", v, ok)
		}
		if _, ok := th.Find(10); ok {
			t.Fatal("Find after Delete returned ok")
		}
		if _, ok := th.Delete(10); ok {
			t.Fatal("second Delete returned ok")
		}
	})
}

func TestReservedKeysPanic(t *testing.T) {
	tr := New()
	th := tr.NewThread()
	for _, k := range []uint64{0, ^uint64(0)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%d) did not panic", k)
				}
			}()
			th.Insert(k, 1)
		}()
	}
}

func TestSequentialBulk(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		const n = 10000
		for i := uint64(1); i <= n; i++ {
			if _, inserted := th.Insert(i, i*2); !inserted {
				t.Fatalf("Insert(%d) failed", i)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after inserts: %v", err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for i := uint64(1); i <= n; i++ {
			if v, ok := th.Find(i); !ok || v != i*2 {
				t.Fatalf("Find(%d) = (%d, %v)", i, v, ok)
			}
		}
		// Delete odd keys.
		for i := uint64(1); i <= n; i += 2 {
			if v, ok := th.Delete(i); !ok || v != i*2 {
				t.Fatalf("Delete(%d) = (%d, %v)", i, v, ok)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after deletes: %v", err)
		}
		for i := uint64(1); i <= n; i++ {
			_, ok := th.Find(i)
			if want := i%2 == 0; ok != want {
				t.Fatalf("Find(%d) = %v, want %v", i, ok, want)
			}
		}
		// Delete the rest; tree must collapse back to a single empty leaf.
		for i := uint64(2); i <= n; i += 2 {
			th.Delete(i)
		}
		if tr.Len() != 0 {
			t.Fatalf("Len = %d after deleting everything", tr.Len())
		}
		if h := tr.Height(); h != 1 {
			t.Fatalf("Height = %d after deleting everything, want 1", h)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDescendingInserts(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		const n = 5000
		for i := uint64(n); i >= 1; i-- {
			th.Insert(i, i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d", tr.Len())
		}
	})
}

func TestScanOrdered(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		rng := xrand.New(5)
		keys := make(map[uint64]uint64)
		for len(keys) < 3000 {
			k := 1 + rng.Uint64n(1<<40)
			keys[k] = k * 3
			th.Insert(k, k*3)
		}
		var prev uint64
		count := 0
		tr.Scan(func(k, v uint64) {
			if k <= prev {
				t.Fatalf("scan out of order: %d after %d", k, prev)
			}
			if want := keys[k]; v != want {
				t.Fatalf("Scan(%d) value %d, want %d", k, v, want)
			}
			prev = k
			count++
		})
		if count != len(keys) {
			t.Fatalf("scanned %d keys, want %d", count, len(keys))
		}
	})
}

// TestModelRandomOps cross-checks the tree against a map under a long
// random op sequence, validating structure periodically.
func TestModelRandomOps(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		rng := xrand.New(99)
		model := make(map[uint64]uint64)
		const ops = 60000
		const keyRange = 800 // small range => heavy churn, many merges
		for i := 0; i < ops; i++ {
			k := 1 + rng.Uint64n(keyRange)
			switch rng.Intn(3) {
			case 0: // insert
				v := rng.Uint64()
				old, inserted := th.Insert(k, v)
				mv, present := model[k]
				if inserted != !present {
					t.Fatalf("op %d: Insert(%d) inserted=%v, model present=%v", i, k, inserted, present)
				}
				if present && old != mv {
					t.Fatalf("op %d: Insert(%d) old=%d, model=%d", i, k, old, mv)
				}
				if !present {
					model[k] = v
				}
			case 1: // delete
				old, deleted := th.Delete(k)
				mv, present := model[k]
				if deleted != present {
					t.Fatalf("op %d: Delete(%d) deleted=%v, model present=%v", i, k, deleted, present)
				}
				if present && old != mv {
					t.Fatalf("op %d: Delete(%d) old=%d, model=%d", i, k, old, mv)
				}
				delete(model, k)
			case 2: // find
				v, ok := th.Find(k)
				mv, present := model[k]
				if ok != present || (present && v != mv) {
					t.Fatalf("op %d: Find(%d) = (%d,%v), model (%d,%v)", i, k, v, ok, mv, present)
				}
			}
			if i%10000 == 9999 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
		}
	})
}

func TestDegreeOptions(t *testing.T) {
	for _, d := range []struct{ a, b int }{{2, 4}, {2, 8}, {3, 8}, {4, 11}, {2, 11}} {
		t.Run(fmt.Sprintf("a%d_b%d", d.a, d.b), func(t *testing.T) {
			tr := New(WithDegree(d.a, d.b))
			th := tr.NewThread()
			for i := uint64(1); i <= 2000; i++ {
				th.Insert(i, i)
			}
			for i := uint64(1); i <= 2000; i += 3 {
				th.Delete(i)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInvalidDegreePanics(t *testing.T) {
	for _, d := range []struct{ a, b int }{{1, 8}, {5, 8}, {2, 3}, {2, 12}, {2, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(WithDegree(%d,%d)) did not panic", d.a, d.b)
				}
			}()
			New(WithDegree(d.a, d.b))
		}()
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := New()
	th := tr.NewThread()
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		th.Insert(i, i)
	}
	// With b=11 and a=2, height should be far below log2(n); allow a
	// generous bound of log_2(n) (relaxed trees are not strictly
	// height-bounded, but sequential fills behave like B-trees).
	if h := tr.Height(); h > 17 {
		t.Fatalf("Height = %d for %d sequential inserts", h, n)
	}
	st := tr.Stats()
	if st.Keys != n {
		t.Fatalf("Stats.Keys = %d", st.Keys)
	}
	if st.Tagged != 0 {
		t.Fatalf("tagged nodes at quiescence: %d", st.Tagged)
	}
}

func TestKeySum(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		var want uint64
		for i := uint64(1); i <= 500; i++ {
			th.Insert(i*7, i)
			want += i * 7
		}
		th.Delete(7)
		want -= 7
		if got := tr.KeySum(); got != want {
			t.Fatalf("KeySum = %d, want %d", got, want)
		}
	})
}
