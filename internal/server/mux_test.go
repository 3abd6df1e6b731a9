package server

// ISSUE 7 coverage: the coalescing client mux end to end over a live
// loopback server (differential shadow-map checks, the linearizability
// suite through one shared connection, ops racing explicit batches, a
// 0-alloc gate on the warmed submit path).

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/linearizability"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// startServerCfg is startServer with a full Config, returning the
// address instead of a dialed client.
func startServerCfg(t *testing.T, name string, keyRange uint64, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(testBuilder, name, keyRange, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// startMux spins up a server plus a connected coalescing mux, both torn
// down with the test (mux first — Close must not race in-flight ops).
func startMux(t *testing.T, name string, keyRange uint64) (*Server, *client.Mux) {
	t.Helper()
	s, addr := startServerCfg(t, name, keyRange, Config{})
	m, err := client.DialMux(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return s, m
}

// TestMuxPointOps is the mux differential test: many goroutines hammer
// per-key ops through the shared connection, each checking its own
// disjoint key stripe against a shadow map (disjoint stripes keep every
// per-goroutine check deterministic despite cross-goroutine
// coalescing), then the aggregate key sum is cross-checked server-side.
func TestMuxPointOps(t *testing.T) {
	t.Run("one-conn", func(t *testing.T) {
		_, m := startMux(t, "occ", 1<<20)
		// 32 callers on one pass in flight make coalescing structural:
		// while a pass is on the wire the other callers park in the
		// submission queue, and the next pass's frames (one per opcode
		// class) must carry them together.
		const (
			goroutines = 32
			ops        = 750
			stripe     = uint64(1) << 10
		)
		var keySum atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := m.NewHandle()
				base := 1 + uint64(g)*stripe
				model := make(map[uint64]uint64)
				rng := xrand.New(uint64(g)*2654435761 + 5)
				for i := 0; i < ops; i++ {
					k := base + rng.Uint64n(stripe)
					switch rng.Uint64n(3) {
					case 0:
						v := rng.Uint64()
						prev, ins := h.Insert(k, v)
						mv, had := model[k]
						if ins == had || (had && prev != mv) {
							t.Errorf("g%d Insert(%d) = %d,%v; model %d,%v", g, k, prev, ins, mv, had)
							return
						}
						if !had {
							model[k] = v
						}
					case 1:
						prev, del := h.Delete(k)
						mv, had := model[k]
						if del != had || (had && prev != mv) {
							t.Errorf("g%d Delete(%d) = %d,%v; model %d,%v", g, k, prev, del, mv, had)
							return
						}
						delete(model, k)
					default:
						v, ok := h.Find(k)
						mv, had := model[k]
						if ok != had || (had && v != mv) {
							t.Errorf("g%d Find(%d) = %d,%v; model %d,%v", g, k, v, ok, mv, had)
							return
						}
					}
				}
				var sum uint64
				for k := range model {
					sum += k
				}
				keySum.Add(sum)
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if got, want := m.KeySum(), keySum.Load(); got != want {
			t.Errorf("KeySum = %d, want %d", got, want)
		}
		cs := m.CoalesceStats()
		if cs.Count == 0 {
			t.Error("mux recorded no coalesced frames")
		}
		if cs.Max() < 2 {
			t.Errorf("mux coalesce max = %d, want >= 2 (%d callers on one conn never shared a frame)", cs.Max(), goroutines)
		}
		if got := m.Inflight(); got != 0 {
			t.Errorf("mux_inflight = %d after quiescence, want 0", got)
		}
	})
}

// TestMuxExplicitBatch: dict.Batcher calls on a mux handle ride its
// side handle, not the shared connection — equal keys still apply in
// input order within a frame, and batches above wire.MaxBatch split and
// reassemble in input order.
func TestMuxExplicitBatch(t *testing.T) {
	_, m := startMux(t, "occ", 1<<20)
	b := m.NewHandle().(dict.Batcher)

	keys := []uint64{5, 5, 7, 5}
	vals := []uint64{10, 20, 30, 40}
	prev := make([]uint64, len(keys))
	ok := make([]bool, len(keys))
	b.InsertBatch(keys, vals, prev, ok)
	want := []struct {
		ok   bool
		prev uint64
	}{{true, 0}, {false, 10}, {true, 0}, {false, 10}}
	for i, w := range want {
		if ok[i] != w.ok || (!w.ok && prev[i] != w.prev) {
			t.Errorf("InsertBatch[%d] = %d,%v, want %d,%v", i, prev[i], ok[i], w.prev, w.ok)
		}
	}

	n := wire.MaxBatch + 100 // splits into two pipelined frames
	bk := make([]uint64, n)
	bv := make([]uint64, n)
	res := make([]uint64, n)
	oks := make([]bool, n)
	for i := range bk {
		bk[i] = 100 + uint64(i)
		bv[i] = uint64(i)*3 + 1
	}
	b.InsertBatch(bk, bv, res, oks)
	b.FindBatch(bk, res, oks)
	for i := range bk {
		if !oks[i] || res[i] != bv[i] {
			t.Fatalf("multi-frame FindBatch[%d] = %d,%v, want %d,true", i, res[i], oks[i], bv[i])
		}
	}
}

// TestMuxLinearizability records concurrent per-key histories from many
// goroutines through ONE shared connection (plus whole-keyset snapshot
// scans) and feeds them to the Wing&Gong checker: coalescing must
// preserve per-key linearizability end to end.
func TestMuxLinearizability(t *testing.T) {
	_, m := startMux(t, "shard4", 64)
	keys := []uint64{3, 9, 17, 33, 49, 60} // spread across the 4 shards
	history := linearizability.Record(func() linearizability.DictHandle {
		return m.NewHandle().(linearizability.DictHandle)
	}, linearizability.RecordConfig{
		Workers:   8,
		OpsPerKey: 20,
		Keys:      keys,
		Seed:      42,
		RangeOps:  30,
	})
	if len(history) == 0 {
		t.Fatal("no operations recorded")
	}
	if err := linearizability.Check(history, nil); err != nil {
		t.Fatalf("mux history not linearizable: %v", err)
	}
}

// TestMuxLinearizableRacingBatch: point ops coalescing on the shared
// connection race an explicit multi-frame batch from a handle of the
// same mux, which rides that handle's side connection; the combined
// history (batch keys expanded per the dict.Batcher contract) must stay
// linearizable.
func TestMuxLinearizableRacingBatch(t *testing.T) {
	_, m := startMux(t, "occ", 1<<16)
	keys := []uint64{5, 6}
	var clock atomic.Int64
	var mu sync.Mutex
	var history []linearizability.Op

	record := func(op linearizability.Op) {
		mu.Lock()
		history = append(history, op)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			rng := xrand.New(uint64(w) + 7)
			for i := 0; i < 12; i++ {
				k := keys[rng.Intn(len(keys))]
				op := linearizability.Op{Key: k, ThreadID: w, Kind: linearizability.OpKind(rng.Intn(3))}
				op.Call = clock.Add(1)
				switch op.Kind {
				case linearizability.OpFind:
					op.OutVal, op.OutOK = h.Find(k)
				case linearizability.OpInsert:
					op.Arg = rng.Uint64()%100 + 1
					op.OutVal, op.OutOK = h.Insert(k, op.Arg)
				default:
					op.OutVal, op.OutOK = h.Delete(k)
				}
				op.Return = clock.Add(1)
				record(op)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := m.NewHandle().(dict.Batcher)
		n := wire.MaxBatch + 50
		bk := make([]uint64, n)
		bv := make([]uint64, n)
		res := make([]uint64, n)
		ok := make([]bool, n)
		rng := xrand.New(1234)
		for round := 0; round < 6; round++ {
			for i := range bk {
				bk[i] = 1000 + uint64(i) // filler keys, disjoint from the recorded ones
				bv[i] = uint64(round)*10 + 1
			}
			bk[100], bk[n-1] = keys[0], keys[1]
			bv[100] = rng.Uint64()%100 + 1
			bv[n-1] = rng.Uint64()%100 + 1
			call := clock.Add(1)
			if round%2 == 0 {
				b.InsertBatch(bk, bv, res, ok)
			} else {
				b.DeleteBatch(bk, res, ok)
			}
			ret := clock.Add(1)
			kind := linearizability.OpInsert
			if round%2 == 1 {
				kind = linearizability.OpDelete
			}
			for _, i := range []int{100, n - 1} {
				record(linearizability.Op{
					Kind: kind, Key: bk[i], Arg: bv[i],
					OutVal: res[i], OutOK: ok[i],
					Call: call, Return: ret, ThreadID: 2,
				})
			}
		}
	}()
	wg.Wait()
	if err := linearizability.Check(history, nil); err != nil {
		t.Fatalf("mux point/batch history not linearizable: %v", err)
	}
}

// TestAllocsMux: the ISSUE 7 alloc gate. A warmed-up per-key operation
// through the mux — combiner staging, frame encode, server round trip,
// reader scatter, waiter wakeup — allocates nothing process-wide.
func TestAllocsMux(t *testing.T) {
	_, m := startMux(t, "occ", 1<<16)
	h := m.NewHandle()
	for k := uint64(1); k <= 10_000; k++ {
		h.Insert(k, k)
	}
	// Warm every pool: frames, staging slices, scratch growth.
	for i := 0; i < 2000; i++ {
		h.Find(uint64(1 + i%10_000))
	}
	if avg := testing.AllocsPerRun(500, func() { h.Find(7777) }); avg != 0 {
		t.Errorf("mux Find allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { h.Insert(7777, 1) }); avg != 0 {
		t.Errorf("mux present-key Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		h.Delete(5000)
		h.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("mux steady-state Delete+Insert allocates %.2f/op, want 0", avg)
	}
}
