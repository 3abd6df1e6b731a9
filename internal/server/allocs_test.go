package server

// Allocation guard for the remote point-operation path, the ISSUE 5
// acceptance bar: a warmed-up GET/PUT/DELETE over a live loopback
// connection must allocate NOTHING across the whole stack — client
// frame encode, server frame decode (into the connection's reused
// request), execution on a settled OCC tree, response encode (into the
// connection's reused output buffer) and client decode.
// testing.AllocsPerRun counts mallocs process-wide, so the server
// goroutines' allocations are inside the measurement.

import (
	"testing"

	"repro/internal/client"
	"repro/internal/dict"
)

func TestAllocsRemotePointOps(t *testing.T) {
	_, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	for k := uint64(1); k <= 10_000; k++ {
		h.Insert(k, k)
	}
	// Warm every buffer: decode scratch, output buffer, scratch growth.
	for i := 0; i < 2000; i++ {
		h.Find(uint64(1 + i%10_000))
	}
	if avg := testing.AllocsPerRun(500, func() { h.Find(7777) }); avg != 0 {
		t.Errorf("remote Find allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { h.Insert(7777, 1) }); avg != 0 {
		t.Errorf("remote present-key Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		h.Delete(5000)
		h.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("remote steady-state Delete+Insert allocates %.2f/op, want 0", avg)
	}
}

// TestAllocsReplicatedPoint: a warmed-up replicated PUT/DELETE — primary
// apply and log append, one REPLICATE round trip to the follower, its
// apply and REPL_ACK, the commit wait, the response — allocates next to
// nothing process-wide. The allowance is the two op logs' amortized
// growth (one slice doubling per thousands of entries).
func TestAllocsReplicatedPoint(t *testing.T) {
	_, _, paddr, _ := startReplPair(t, "occ", 1<<16)
	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	h := pc.NewHandle()
	for k := uint64(1); k <= 2000; k++ {
		h.Insert(k, k)
	}
	cycle := func() {
		h.Delete(500)
		h.Insert(500, 500)
	}
	for i := 0; i < 2000; i++ {
		cycle() // warm the pools and the senders' scratch
	}
	perOp := testing.AllocsPerRun(1000, cycle) / 2
	t.Logf("%.3f allocs per replicated PUT/DELETE", perOp)
	if perOp > 0.05 {
		t.Errorf("replicated PUT/DELETE allocates %.3f/op, want <= 0.05", perOp)
	}
}

// TestAllocsRemoteBatchOps: the batched wire path reuses the same
// pooled plumbing — a warmed-up MGET round trip allocates nothing
// either (per batch, let alone per key).
func TestAllocsRemoteBatchOps(t *testing.T) {
	_, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	for k := uint64(1); k <= 10_000; k++ {
		h.Insert(k, k)
	}
	b := h.(dict.Batcher)
	keys := make([]uint64, 64)
	vals := make([]uint64, 64)
	ok := make([]bool, 64)
	for i := range keys {
		keys[i] = uint64(100 + i)
	}
	for i := 0; i < 100; i++ {
		b.FindBatch(keys, vals, ok)
	}
	if avg := testing.AllocsPerRun(300, func() { b.FindBatch(keys, vals, ok) }); avg != 0 {
		t.Errorf("remote FindBatch(64) allocates %.2f/batch, want 0", avg)
	}
}

// TestAllocsRemoteScan: a warmed-up remote scan reuses the server's
// chunk buffers and the client's pair buffer (the PR 3 scratch
// discipline over the wire).
func TestAllocsRemoteScan(t *testing.T) {
	_, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	for k := uint64(1); k <= 10_000; k++ {
		h.Insert(k, k)
	}
	sr := h.(dict.SnapshotRanger)
	var sink uint64
	fn := func(_, v uint64) bool {
		sink += v
		return true
	}
	for i := 0; i < 50; i++ {
		sr.RangeSnapshot(3000, 3999, fn)
	}
	if avg := testing.AllocsPerRun(200, func() { sr.RangeSnapshot(3000, 3999, fn) }); avg != 0 {
		t.Errorf("remote RangeSnapshot(1000 keys) allocates %.2f/op, want 0", avg)
	}
	_ = sink
}
