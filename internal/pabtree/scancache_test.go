package pabtree

// Tests for the path-cached scan fast path on the persistent trees: the
// differential of internal/core/scancache_test.go — two snapshot scans
// at the SAME linearization timestamp, one through the warm path cache,
// one with the cache disabled, must agree exactly under concurrent
// split/merge churn — and the epoch rule only this store has.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
	"repro/internal/rq"
)

func TestScanPathCacheDifferential(t *testing.T) {
	const keyRange = 4000
	// The degree-(2,4) tree splits and merges constantly, and every SMO
	// allocates node slots whose reclamation trails by an epoch grace
	// period: give the arena generous headroom and bound the background
	// writers' total work so slot demand cannot outrun reclamation on
	// any scheduling.
	tr := New(pmem.New(1<<23), WithDegree(2, 4))
	loader := tr.NewThread()
	for k := uint64(1); k <= keyRange; k++ {
		loader.Insert(k, k)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
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
	iters := 300
	if testing.Short() {
		iters = 80
	}
	var got, want []rq.Pair
	for i := 0; i < iters; i++ {
		// Churn from this goroutine too, so single-CPU boxes still
		// reshape the tree between scans.
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

// TestScanPathResetPerEpochSection pins the epoch rule of the cached
// scan path: an arena offset names the same node only inside the epoch
// critical section it was read in, so every scan and batch call drops
// the path on entry (scanEnter). The test warms the cache, retires the
// nodes on it and recycles their slots as different nodes, then scans
// again: a path carried over from the earlier call would resume the
// descent at a recycled slot and read some other part of the tree.
func TestScanPathResetPerEpochSection(t *testing.T) {
	tr := New(pmem.New(1<<14*NodeWords), WithDegree(2, 4))
	th := tr.NewThread()
	shadow := map[uint64]uint64{}
	for k := uint64(1); k <= 2000; k++ {
		th.Insert(k, k)
		shadow[k] = k
	}
	// Warm the cache: it ends on the path to the leaf of key 1000.
	th.Range(1, 1000, func(k, v uint64) bool { return true })
	// Delete everything at or below 1000: the merges replace every node
	// on that path. Flush hands their slots back to the free list, and
	// inserts elsewhere reuse them for new nodes of other key ranges.
	for k := uint64(1); k <= 1000; k++ {
		th.Delete(k)
		delete(shadow, k)
	}
	th.eh.Flush()
	for k := uint64(5001); k <= 8000; k++ {
		th.Insert(k, k)
		shadow[k] = k
	}
	for name, scan := range map[string]func(lo, hi uint64, fn func(k, v uint64) bool){
		"Range": th.Range, "RangeSnapshot": th.RangeSnapshot,
	} {
		got := 0
		prev := uint64(0)
		scan(1, 10_000, func(k, v uint64) bool {
			if k <= prev || shadow[k] != v {
				t.Errorf("%s reported %d=%d after %d", name, k, v, prev)
				return false
			}
			prev = k
			got++
			return true
		})
		if got != len(shadow) {
			t.Errorf("%s reported %d pairs, want %d", name, got, len(shadow))
		}
	}
}
