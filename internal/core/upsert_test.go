package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/abalg"
	"repro/internal/xrand"
)

func TestUpsertBasics(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		th.Upsert(5, 50)
		if v, ok := th.Find(5); !ok || v != 50 {
			t.Fatalf("Find = (%d,%v)", v, ok)
		}
		th.Upsert(5, 51) // replace
		if v, _ := th.Find(5); v != 51 {
			t.Fatalf("value after replace = %d", v)
		}
		if v, ok := th.Delete(5); !ok || v != 51 {
			t.Fatalf("Delete = (%d,%v)", v, ok)
		}
		th.Upsert(5, 52) // reinsert
		if v, _ := th.Find(5); v != 52 {
			t.Fatalf("value after reinsert = %d", v)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUpsertModelMixed(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		rng := xrand.New(321)
		model := make(map[uint64]uint64)
		for i := 0; i < 50000; i++ {
			k := 1 + rng.Uint64n(500)
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				if _, ins := th.Insert(k, v); ins {
					model[k] = v
				}
			case 1:
				th.Delete(k)
				delete(model, k)
			case 2:
				v := rng.Uint64()
				th.Upsert(k, v)
				model[k] = v
			case 3:
				v, ok := th.Find(k)
				mv, present := model[k]
				if ok != present || (present && v != mv) {
					t.Fatalf("op %d: Find(%d) = (%d,%v), model (%d,%v)", i, k, v, ok, mv, present)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len %d vs model %d", tr.Len(), len(model))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUpsertFullLeafSplits(t *testing.T) {
	tr := New()
	th := tr.NewThread()
	for i := uint64(1); i <= 5000; i++ {
		th.Upsert(i, i)
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUpsertEliminationMatrix verifies the §7 compatibility matrix with
// the deterministic white-box construction from elim_test.go: a publisher
// of each record kind is frozen mid-update while a single concurrent
// operation starts inside the window; after the publisher completes, the
// operation must have eliminated exactly when the matrix allows. Each
// (record, op) pair runs in its own trial so the trial's only published
// record is the one under test.
func TestUpsertEliminationMatrix(t *testing.T) {
	matrix := []struct {
		recKind abalg.RecKind
		op      abalg.OpKind
		want    bool
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
	}
	for _, tc := range matrix {
		tr := New(WithElimination())
		pub := tr.NewThread()
		// For delete/replace records the key must be present beforehand.
		if tc.recKind != abalg.RecInsert {
			pub.Insert(7, 1)
		}
		finish := openPublishingWindow(tr, pub, 7, 42, tc.recKind)

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

		finish() // the publisher completes its operation
		<-done

		ei, ed, eu := tr.ElimStats()
		got := ei+ed+eu == 1
		if got != tc.want {
			t.Errorf("rec=%d op=%d: eliminated=%v, matrix says %v", tc.recKind, tc.op, got, tc.want)
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("rec=%d op=%d: %v", tc.recKind, tc.op, err)
		}
	}
}

func TestUpsertConcurrentLastWriterWins(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.NewThread()
				rng := xrand.New(uint64(w) + 900)
				for i := 0; i < 20000; i++ {
					k := 1 + rng.Uint64n(64)
					th.Upsert(k, k*1000+uint64(w))
				}
			}(w)
		}
		wg.Wait()
		// Every present value must be one some worker actually wrote for
		// that key.
		tr.Scan(func(k, v uint64) {
			if v/1000 != k || v%1000 >= workers {
				t.Errorf("key %d has impossible value %d", k, v)
			}
		})
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRangeBasic(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		th := tr.NewThread()
		for i := uint64(1); i <= 1000; i++ {
			th.Insert(i*3, i)
		}
		var got []uint64
		th.Range(30, 90, func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90}
		if len(got) != len(want) {
			t.Fatalf("Range returned %d keys, want %d: %v", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestRangeQuick(t *testing.T) {
	tr := New()
	th := tr.NewThread()
	rng := xrand.New(555)
	model := make(map[uint64]uint64)
	for i := 0; i < 4000; i++ {
		k := 1 + rng.Uint64n(5000)
		th.Insert(k, k*2)
		model[k] = k * 2
	}
	f := func(a, b uint16) bool {
		lo, hi := uint64(a), uint64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == 0 {
			lo = 1
		}
		var got []uint64
		th.Range(lo, hi, func(k, v uint64) bool {
			if model[k] != v {
				return false
			}
			got = append(got, k)
			return true
		})
		count := 0
		for k := range model {
			if k >= lo && k <= hi {
				count++
			}
		}
		if len(got) != count {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New()
	th := tr.NewThread()
	for i := uint64(1); i <= 100; i++ {
		th.Insert(i, i)
	}
	n := 0
	th.Range(1, 100, func(k, v uint64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestRangeUnderConcurrentUpdates(t *testing.T) {
	tr := New()
	th0 := tr.NewThread()
	// Stable keys 1..1000 (always present); churn keys 2000..3000.
	for i := uint64(1); i <= 1000; i++ {
		th0.Insert(i, i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tr.NewThread()
			rng := xrand.New(uint64(w) + 42)
			for !stop.Load() {
				k := 2000 + rng.Uint64n(1000)
				if rng.Uint64n(2) == 0 {
					th.Insert(k, k)
				} else {
					th.Delete(k)
				}
			}
		}(w)
	}
	reader := tr.NewThread()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		seen := 0
		prev := uint64(0)
		reader.Range(1, 1000, func(k, v uint64) bool {
			if k <= prev || v != k {
				t.Errorf("range anomaly: key %d val %d after %d", k, v, prev)
				return false
			}
			prev = k
			seen++
			return true
		})
		if seen != 1000 {
			t.Fatalf("stable range returned %d keys, want 1000", seen)
		}
	}
	stop.Store(true)
	wg.Wait()
}
