package pabtree

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/xrand"
	"repro/internal/zipfian"
)

func stress(t *testing.T, tr *Tree, workers int, d time.Duration, keyRange uint64, zipfS float64) {
	t.Helper()
	sums := make([]int64, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tr.NewThread()
			z := zipfian.New(xrand.New(uint64(w)*31+5), keyRange, zipfS)
			rng := xrand.New(uint64(w) * 77)
			var sum int64
			for !stop.Load() {
				k := z.Next()
				switch rng.Uint64n(4) {
				case 0, 1:
					if _, ins := th.Insert(k, k); ins {
						sum += int64(k)
					}
				case 2:
					if _, del := th.Delete(k); del {
						sum -= int64(k)
					}
				default:
					th.Find(k)
				}
			}
			sums[w] = sum
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	var total int64
	for _, s := range sums {
		total += s
	}
	if got := int64(tr.KeySum()); got != total {
		t.Fatalf("key-sum validation failed: tree=%d threads=%d", got, total)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidatePersisted(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUniform(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		stress(t, tr, 8, 300*time.Millisecond, 5000, 0)
	})
}

func TestConcurrentZipf(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		stress(t, tr, 8, 300*time.Millisecond, 5000, 1)
	})
}

func TestConcurrentTinyKeyRange(t *testing.T) {
	both(t, func(t *testing.T, tr *Tree) {
		stress(t, tr, 8, 200*time.Millisecond, 8, 0)
	})
}

// TestConcurrentThenCrash combines concurrency with a crash: workers run,
// stop at an arbitrary moment, the arena crashes, and recovery must
// produce a valid tree containing every completed op's effect (checked
// via the per-worker key-sum bounds: since in-flight ops at the stop are
// none — workers stop at op boundaries — the recovered key-sum must match
// exactly when eviction persists everything that was pending... which is
// only guaranteed for completed ops; completed ops are always flushed, so
// the sums must match for any eviction probability).
func TestConcurrentThenCrash(t *testing.T) {
	a := pmem.New(256 * 1024 * NodeWords)
	tr := New(a)
	sums := make([]int64, 6)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tr.NewThread()
			rng := xrand.New(uint64(w)*13 + 1)
			var sum int64
			for !stop.Load() {
				k := 1 + rng.Uint64n(3000)
				if rng.Uint64n(2) == 0 {
					if _, ins := th.Insert(k, k); ins {
						sum += int64(k)
					}
				} else {
					if _, del := th.Delete(k); del {
						sum -= int64(k)
					}
				}
			}
			sums[w] = sum
		}(w)
	}
	time.Sleep(250 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	a.Crash(0, 99) // drop every unflushed line: completed ops must survive
	rt := Recover(a)
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range sums {
		total += s
	}
	if got := int64(rt.KeySum()); got != total {
		t.Fatalf("recovered key-sum %d, want %d", got, total)
	}
}
