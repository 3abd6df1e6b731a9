package server

// Footprint gate for the serving stack's fixed cost: what a server, a
// client and two connections hold on the heap besides the tree. Each
// histogram stripe is ~9 KB and each trace ring ~80 KB, so an
// instrument set that carried every stripe inline would cost several
// MB here; stripes allocated on first write cost only those the
// traffic reaches.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/client"
)

// liveHeap returns the bytes of reachable heap objects after a full
// collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServingFootprint: the live-heap growth of server.New on an empty
// OCC-ABtree, Start, client.Dial and two try-handles stays within
// footprintBudget, both right after set-up and after 10 k warmed
// GET/PUT/DELETE per handle (so the budget holds in steady state, not
// only until the first request).
func TestServingFootprint(t *testing.T) {
	const footprintBudget = 1_500_000
	heap0 := liveHeap()
	s, err := New(testBuilder, "occ", 1<<16, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var hs [2]client.TryHandle
	for i := range hs {
		h, err := c.NewTryHandle()
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h.(client.TryHandle)
	}
	setUp := liveHeap() - heap0

	// Both handles at once, so both workers serve and record.
	var wg sync.WaitGroup
	errs := make(chan error, len(hs))
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h client.TryHandle) {
			defer wg.Done()
			for n := 0; n < 10_000; n++ {
				k := uint64(1 + (7*n+i)%1000)
				var err error
				switch n % 3 {
				case 0:
					_, _, err = h.TryFind(k)
				case 1:
					_, _, err = h.TryInsert(k, k)
				case 2:
					_, _, err = h.TryDelete(k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(i, h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	warmed := liveHeap() - heap0
	runtime.KeepAlive(hs)

	t.Logf("footprint: set-up %d B, after 2 x 10k ops %d B", setUp, warmed)
	if setUp > footprintBudget {
		t.Errorf("set-up footprint %d B, want <= %d", setUp, footprintBudget)
	}
	if warmed > footprintBudget {
		t.Errorf("footprint after warmed ops %d B, want <= %d", warmed, footprintBudget)
	}
}
