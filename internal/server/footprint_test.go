package server

// Footprint gate for the serving stack's fixed cost: what a server, a
// client and two connections hold on the heap besides the tree. Each
// histogram stripe is ~9 KB and each trace ring ~80 KB, so an
// instrument set that carried every stripe inline would cost several
// MB here; stripes allocated on first write cost only those the
// traffic reaches. Connections work the same way: a frame reader's
// buffer starts at 4 KB on the first frame and grows with the largest
// frames carried, and a server connection holds one decoded request
// and one output buffer, cut at 64 KB: no request slots and no
// response pool.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/treedict"
	"repro/internal/wire"
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
// 256 KB right after set-up and within 512 KB after 10 k warmed
// GET/PUT/DELETE per handle (so the budget holds in steady state, not
// only until the first request). After one 40 k-key MPUT and one
// full-range scan on a handle, less the tree's own growth, it stays
// within 1.5 MB; it reads about 0.9 MB, as the client drops the scan's
// 640 KB pair buffer after the replay (it keeps at most 64 KB). The
// rest is scratch sized by the traffic and kept by design — the server
// connection's one decoded request (64 KB of keys and values) and the
// worker's batch results — beside frame readers at their 256 KB cap
// and output buffers of about 64 KB.
func TestServingFootprint(t *testing.T) {
	const setUpBudget, warmedBudget, bulkBudget = 256 << 10, 512 << 10, 3 << 19
	heap0 := liveHeap()
	s, err := New(testBuilder, "occ", 1<<16, Config{})
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

	// Both handles at once, so both connections serve and record.
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

	const n = 40_000
	keys, vals, oks := make([]uint64, n), make([]uint64, n), make([]bool, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	tree := treeBytes(keys)
	hs[0].(dict.Batcher).InsertBatch(keys, keys, vals, oks)
	pairs := 0
	hs[0].(dict.SnapshotRanger).RangeSnapshot(1, n, func(_, _ uint64) bool {
		pairs++
		return true
	})
	if pairs != n {
		t.Fatalf("scan returned %d pairs, want %d", pairs, n)
	}
	// The tree's growth is the tree's, not the serving stack's (the
	// batch's own slices are dead by now).
	bulk := liveHeap() - heap0 - tree
	runtime.KeepAlive(hs)

	t.Logf("footprint: set-up %d B, after 2 x 10k ops %d B, after a %d-key MPUT and scan %d B (+ %d B of tree)", setUp, warmed, n, bulk, tree)
	if setUp > setUpBudget {
		t.Errorf("set-up footprint %d B, want <= %d", setUp, setUpBudget)
	}
	if warmed > warmedBudget {
		t.Errorf("footprint after warmed ops %d B, want <= %d", warmed, warmedBudget)
	}
	if bulk > bulkBudget {
		t.Errorf("footprint after a bulk MPUT and scan %d B, want <= %d", bulk, bulkBudget)
	}
}

// treeBytes is the live-heap growth of a standalone OCC-ABtree taking
// keys in wire.MaxBatch batches, as a server worker applies an MPUT.
func treeBytes(keys []uint64) int64 {
	heap0 := liveHeap()
	h := testBuilder("occ", 1<<16).NewHandle()
	b := treedict.BatcherFor(h)
	vals, oks := make([]uint64, wire.MaxBatch), make([]bool, wire.MaxBatch)
	for off := 0; off < len(keys); off += wire.MaxBatch {
		end := min(off+wire.MaxBatch, len(keys))
		b.InsertBatch(keys[off:end], keys[off:end], vals[:end-off], oks[:end-off])
	}
	grown := liveHeap() - heap0
	runtime.KeepAlive(h)
	return grown
}
