package pabtree

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/xrand"
)

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
