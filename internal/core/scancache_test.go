package core

// Differential tests for the path-cached scan fast path: under heavy
// concurrent split/merge churn, a scan resuming from its cached descent
// must observe exactly what a scan re-descending from the root for
// every leaf observes.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rq"
)

// TestScanPathCacheDifferential runs two snapshot scans at the SAME
// linearization timestamp — one through the warm path cache, one with
// the cache disabled (full re-descent per hop, the pre-cache
// algorithm) — while writers churn the tree with splitting inserts and
// merging deletes. A snapshot at a fixed timestamp is unique, so any
// divergence is a fast-path bug. Degree (2,4) maximizes structural
// churn per write. Each writer's work is bounded, as in
// TestBatchDifferentialUnderChurn.
func TestScanPathCacheDifferential(t *testing.T) {
	const keyRange = 4000
	tr := New(WithDegree(2, 4))
	loader := tr.NewThread()
	for k := uint64(1); k <= keyRange; k++ {
		loader.Insert(k, k)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			wth := tr.NewThread()
			for n := 0; n < 100_000 && !stop.Load(); n++ {
				k := uint64(rng.Intn(keyRange)) + 1
				if rng.Intn(2) == 0 {
					wth.Delete(k)
				} else {
					wth.Insert(k, k*3)
				}
			}
		}(int64(w) + 1)
	}

	cached := tr.NewThread()
	fresh := tr.NewThread()
	fresh.scratch.NoScanCache = true
	churn := tr.NewThread()
	sc := tr.rqp.Register()
	rng := rand.New(rand.NewSource(42))
	iters := 400
	if testing.Short() {
		iters = 100
	}
	var got, want []rq.Pair
	for i := 0; i < iters; i++ {
		// Churn from this goroutine too: on a single-CPU box the writer
		// goroutines may never be scheduled inside this tight loop, and
		// the differential needs version-chain and SMO traffic between
		// the two same-timestamp scans' descents.
		for j := 0; j < 20; j++ {
			k := uint64(rng.Intn(keyRange)) + 1
			if rng.Intn(2) == 0 {
				churn.Delete(k)
			} else {
				churn.Insert(k, k*3)
			}
		}
		runtime.Gosched()
		lo := uint64(rng.Intn(keyRange-200)) + 1
		hi := lo + uint64(rng.Intn(200))
		ts := sc.Begin()
		got = got[:0]
		want = want[:0]
		// The cached thread scans twice: once to warm/carry its cache
		// state across iterations, once measured — both must agree with
		// the full-re-descent scan at the same timestamp.
		cached.RangeSnapshotAt(ts, lo, hi, func(k, v uint64) bool {
			got = append(got, rq.Pair{K: k, V: v})
			return true
		})
		fresh.RangeSnapshotAt(ts, lo, hi, func(k, v uint64) bool {
			want = append(want, rq.Pair{K: k, V: v})
			return true
		})
		sc.End()
		if len(got) != len(want) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("iter %d [%d,%d] ts=%d: cached scan returned %d pairs, full re-descent %d", i, lo, hi, ts, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("iter %d [%d,%d] ts=%d: pair %d differs: cached %+v, full %+v", i, lo, hi, ts, j, got[j], want[j])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if _, versions := tr.RQStats(); versions == 0 {
		t.Fatal("churn produced no preserved versions; the differential exercised nothing")
	}
}
