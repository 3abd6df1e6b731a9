package server

// End-to-end tests of the network service layer: a real TCP server on
// a loopback ephemeral port, driven through internal/client — the same
// stack abtree-bench -remote uses.

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/rq"
	"repro/internal/shard"
	"repro/internal/treedict"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// testBuilder is the test registry: enough shapes to cover every
// capability combination without dragging in the full bench registry.
func testBuilder(name string, keyRange uint64) dict.Dict {
	switch name {
	case "occ":
		return treedict.Core{T: core.New()}
	case "elim":
		return treedict.Core{T: core.New(core.WithElimination())}
	case "shard4":
		return shard.New(4, keyRange, func(_ int, c *rq.Clock) dict.Dict {
			return treedict.Core{T: core.New(core.WithRQClock(c))}
		})
	case "noscan":
		return noScanDict{treedict.Core{T: core.New()}}
	default:
		panic(fmt.Sprintf("test builder: unknown structure %q", name))
	}
}

// noScanDict hides the tree's scan (and batch) capabilities, so the
// server must report CapRange/CapSnap clear and the client must hand
// out scanless handles.
type noScanDict struct{ d dict.Dict }

type noScanHandle struct{ h dict.Handle }

func (d noScanDict) NewHandle() dict.Handle { return noScanHandle{d.d.NewHandle()} }
func (d noScanDict) KeySum() uint64         { return d.d.KeySum() }

func (h noScanHandle) Find(k uint64) (uint64, bool)      { return h.h.Find(k) }
func (h noScanHandle) Insert(k, v uint64) (uint64, bool) { return h.h.Insert(k, v) }
func (h noScanHandle) Delete(k uint64) (uint64, bool)    { return h.h.Delete(k) }

// startServer spins up a server on an ephemeral loopback port plus a
// connected client, both torn down with the test.
func startServer(t *testing.T, name string, keyRange uint64) (*Server, *client.Client) {
	t.Helper()
	s, err := New(testBuilder, name, keyRange, Config{})
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
	return s, c
}

func TestRemotePointOps(t *testing.T) {
	_, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	model := make(map[uint64]uint64)
	rng := xrand.New(7)
	for i := 0; i < 3000; i++ {
		k := 1 + rng.Uint64n(500)
		switch rng.Uint64n(3) {
		case 0:
			v := rng.Uint64()
			prev, ins := h.Insert(k, v)
			_, had := model[k]
			if ins != !had {
				t.Fatalf("Insert(%d): inserted=%v, model had=%v", k, ins, had)
			}
			if had && prev != model[k] {
				t.Fatalf("Insert(%d): prev=%d, model=%d", k, prev, model[k])
			}
			if !had {
				model[k] = v
			}
		case 1:
			prev, del := h.Delete(k)
			mv, had := model[k]
			if del != had || (had && prev != mv) {
				t.Fatalf("Delete(%d): (%d,%v), model (%d,%v)", k, prev, del, mv, had)
			}
			delete(model, k)
		default:
			v, ok := h.Find(k)
			mv, had := model[k]
			if ok != had || (had && v != mv) {
				t.Fatalf("Find(%d): (%d,%v), model (%d,%v)", k, v, ok, mv, had)
			}
		}
	}
	var want uint64
	for k := range model {
		want += k
	}
	if got := c.KeySum(); got != want {
		t.Fatalf("remote KeySum=%d, model=%d", got, want)
	}
}

// TestRemoteBatchOps drives batches through the MGET/MPUT/MDELETE wire
// path, including batches larger than wire.MaxBatch (split into
// pipelined frames) and duplicate keys in one batch (input-order
// semantics).
func TestRemoteBatchOps(t *testing.T) {
	_, c := startServer(t, "occ", 1<<20)
	h := c.NewHandle()
	b := h.(dict.Batcher)

	n := wire.MaxBatch*2 + 137 // 3 pipelined frames
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	res := make([]uint64, n)
	ok := make([]bool, n)
	for i := range keys {
		keys[i] = uint64(i/2 + 1) // every key appears twice
		vals[i] = uint64(i + 1000)
	}
	b.InsertBatch(keys, vals, res, ok)
	for i := range keys {
		if i%2 == 0 {
			if !ok[i] {
				t.Fatalf("first insert of key %d not inserted", keys[i])
			}
		} else {
			if ok[i] || res[i] != vals[i-1] {
				t.Fatalf("dup insert of key %d: (%d,%v), want existing %d", keys[i], res[i], ok[i], vals[i-1])
			}
		}
	}
	b.FindBatch(keys, res, ok)
	for i := range keys {
		want := vals[i-i%2]
		if !ok[i] || res[i] != want {
			t.Fatalf("FindBatch key %d: (%d,%v), want %d", keys[i], res[i], ok[i], want)
		}
	}
	b.DeleteBatch(keys, res, ok)
	for i := range keys {
		if del := i%2 == 0; ok[i] != del {
			t.Fatalf("DeleteBatch key %d (i=%d): deleted=%v, want %v", keys[i], i, ok[i], del)
		}
	}
	if got := c.KeySum(); got != 0 {
		t.Fatalf("KeySum after delete-all = %d", got)
	}
}

// TestRemoteBatchCrossFrameOrder: equal keys on opposite sides of a
// wire.MaxBatch frame boundary must still apply in input order (the
// dict.Batcher contract) while the client pipelines the frames — the
// server serves a connection's frames in arrival order. A mux handle's
// batches ride its side handle and must keep the same order.
func TestRemoteBatchCrossFrameOrder(t *testing.T) {
	for _, tc := range []struct {
		name   string
		handle func(t *testing.T) dict.Handle
	}{
		{"plain", func(t *testing.T) dict.Handle {
			_, c := startServer(t, "occ", 1<<20)
			return c.NewHandle()
		}},
		{"mux", func(t *testing.T) dict.Handle {
			_, m := startMux(t, "occ", 1<<20)
			return m.NewHandle()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.handle(t).(dict.Batcher)
			n := wire.MaxBatch + 100
			keys := make([]uint64, n)
			vals := make([]uint64, n)
			res := make([]uint64, n)
			ok := make([]bool, n)
			for i := range keys {
				keys[i] = uint64(i + 1)
				vals[i] = uint64(i + 1)
			}
			// Key 7 appears in frame 0 (index 3, val A) and frame 1 (last
			// index, val B): the first must insert, the second must report
			// the first's value — every run, not just lucky schedules.
			const dup, valA, valB = 7, 111_111, 222_222
			keys[3], vals[3] = dup, valA
			keys[n-1], vals[n-1] = dup, valB
			for round := 0; round < 20; round++ {
				b.InsertBatch(keys, vals, res, ok)
				if !ok[3] {
					t.Fatalf("round %d: first occurrence of dup key not inserted (prev=%d)", round, res[3])
				}
				if ok[n-1] || res[n-1] != valA {
					t.Fatalf("round %d: second occurrence got (%d,%v), want existing %d", round, res[n-1], ok[n-1], valA)
				}
				b.DeleteBatch(keys, res, ok)
				if !ok[3] || res[3] != valA {
					t.Fatalf("round %d: first dup delete got (%d,%v), want (%d,true)", round, res[3], ok[3], valA)
				}
				if ok[n-1] {
					t.Fatalf("round %d: second dup delete reported deleted", round)
				}
			}
		})
	}
}

// TestRemoteBatchDeepPipeline: a batch spanning 25 frames completes
// and lands every result at its input offset, and a deep pipelined
// point burst is answered completely and in order.
func TestRemoteBatchDeepPipeline(t *testing.T) {
	_, c := startServer(t, "occ", 1<<21)
	b := c.NewHandle().(dict.Batcher)
	n := wire.MaxBatch*24 + 17 // 25 frames
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	res := make([]uint64, n)
	ok := make([]bool, n)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals[i] = uint64(i) + 10
	}
	b.InsertBatch(keys, vals, res, ok)
	b.FindBatch(keys, res, ok)
	for i := range keys {
		if !ok[i] || res[i] != vals[i] {
			t.Fatalf("i=%d: (%d,%v), want (%d,true)", i, res[i], ok[i], vals[i])
		}
	}

	// The overload policy, same shape one layer down: a raw connection
	// pipelines a deep point burst. The connection serves it frame by
	// frame, so every request is answered, in order, and nothing is
	// dropped.
	_, addr := startServerCfg(t, "occ", 1<<16, Config{})
	nc := rawDial(t, addr)
	const burst = 512
	var buf []byte
	for id := uint64(1); id <= burst; id++ {
		buf = wire.AppendPoint(buf, id, wire.OpPut, id, id)
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	for want := uint64(1); want <= burst; want++ {
		if id, op, _ := readResp(t, nc); id != want || op != wire.RespPoint {
			t.Fatalf("burst response %d: id=%d op=%#x", want, id, op)
		}
	}
}

// TestRemoteScans checks weak and snapshot scans over a sharded host,
// crossing shard boundaries and chunk boundaries (> wire.MaxChunkPairs
// pairs per response), plus early termination.
func TestRemoteScans(t *testing.T) {
	const keyRange = 10_000
	_, c := startServer(t, "shard4", keyRange)
	h := c.NewHandle()
	for k := uint64(1); k <= keyRange; k++ {
		h.Insert(k, k*3)
	}
	sr, ok := h.(dict.SnapshotRanger)
	if !ok {
		t.Fatal("remote handle for a snapshot-capable host lost RangeSnapshot")
	}
	rr := h.(dict.Ranger)
	check := func(name string, scan func(lo, hi uint64, fn func(k, v uint64) bool)) {
		var got []uint64
		scan(2000, 7999, func(k, v uint64) bool { // spans 2 shard boundaries, 6 chunks
			if v != k*3 {
				t.Fatalf("%s: key %d has value %d, want %d", name, k, v, k*3)
			}
			got = append(got, k)
			return true
		})
		if len(got) != 6000 || got[0] != 2000 || got[5999] != 7999 {
			t.Fatalf("%s: got %d pairs [%d..%d], want 6000 [2000..7999]", name, len(got), got[0], got[len(got)-1])
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[i-1]+1 {
				t.Fatalf("%s: keys not ascending at %d: %d after %d", name, i, got[i], got[i-1])
			}
		}
		n := 0
		scan(1, keyRange, func(_, _ uint64) bool { n++; return n < 10 })
		if n != 10 {
			t.Fatalf("%s: early stop saw %d pairs, want 10", name, n)
		}
	}
	check("Range", rr.Range)
	check("RangeSnapshot", sr.RangeSnapshot)

	if scans, _ := c.RQStats(); scans == 0 {
		t.Fatal("RQStats scans = 0 after remote snapshot scans")
	}
}

// TestRemoteOpen exercises the OPEN generation swap: a fresh structure
// replaces the hosted one under live handles, which must land their
// next operations on the new generation.
func TestRemoteOpen(t *testing.T) {
	s, c := startServer(t, "occ", 1000)
	h := c.NewHandle()
	h.Insert(42, 1)
	if got := c.KeySum(); got != 42 {
		t.Fatalf("KeySum=%d, want 42", got)
	}
	if err := c.Open("elim", 2000); err != nil {
		t.Fatal(err)
	}
	if name, kr, gen := s.Hosted(); name != "elim" || kr != 2000 || gen != 2 {
		t.Fatalf("Hosted() = (%s,%d,%d), want (elim,2000,2)", name, kr, gen)
	}
	if got := c.KeySum(); got != 0 {
		t.Fatalf("KeySum after OPEN = %d, want 0 (fresh structure)", got)
	}
	// The pre-OPEN handle's next op lands on the new generation.
	if _, ok := h.Find(42); ok {
		t.Fatal("pre-OPEN handle still sees the old generation")
	}
	h.Insert(7, 7)
	if got := c.KeySum(); got != 7 {
		t.Fatalf("KeySum=%d, want 7", got)
	}

	// Unknown structures fail cleanly (the builder's panic becomes an
	// OPEN error) and leave the current generation serving.
	if err := c.Open("no-such-structure", 10); err == nil {
		t.Fatal("OPEN of an unknown structure succeeded")
	}
	if v, ok := h.Find(7); !ok || v != 7 {
		t.Fatalf("handle broken after failed OPEN: (%d,%v)", v, ok)
	}
}

// TestRemoteCapabilityGating: the client's handles expose exactly the
// scan interfaces the hosted structure reported via STATS.
func TestRemoteCapabilityGating(t *testing.T) {
	_, c := startServer(t, "noscan", 1000)
	h := c.NewHandle()
	if _, ok := h.(dict.Ranger); ok {
		t.Fatal("scanless host: client handle claims Range")
	}
	if _, ok := h.(dict.SnapshotRanger); ok {
		t.Fatal("scanless host: client handle claims RangeSnapshot")
	}
	if err := c.Open("occ", 1000); err != nil {
		t.Fatal(err)
	}
	h2 := c.NewHandle()
	if _, ok := h2.(dict.SnapshotRanger); !ok {
		t.Fatal("snapshot-capable host: client handle lost RangeSnapshot")
	}
}

// TestRemoteConcurrentHandles hammers one server from many goroutines,
// each with its own handle/connection, and cross-checks the key sum —
// the smallest version of what bench.Run does remotely. Two shapes: a
// random mix (scans included) on a sharded host, and eight connections
// marching through phase-aligned Insert/Find/Delete bursts on one tree,
// where each goroutine's own key stripe must match its shadow map
// exactly.
func TestRemoteConcurrentHandles(t *testing.T) {
	for _, tc := range []struct {
		name, host string
		run        func(t *testing.T, g int, h dict.Handle) (keySum uint64)
	}{
		{"mixed-4-workers", "shard4", mixedOps},
		{"phased-1-worker", "occ", phasedStripeOps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := startServer(t, tc.host, 1<<16)
			const goroutines = 8
			var want atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					want.Add(tc.run(t, g, c.NewHandle()))
				}(g)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if got := c.KeySum(); got != want.Load() {
				t.Fatalf("KeySum=%d, want %d", got, want.Load())
			}
		})
	}
}

// mixedOps runs a random Insert/Delete/Find/RangeSnapshot mix over keys
// shared with every other goroutine, returning its (wrapping) net
// contribution to the key sum.
func mixedOps(_ *testing.T, g int, h dict.Handle) (keySum uint64) {
	rng := xrand.New(uint64(g)*771 + 13)
	for i := 0; i < 2000; i++ {
		k := 1 + rng.Uint64n(1<<12)
		switch rng.Uint64n(4) {
		case 0:
			if _, ok := h.Insert(k, k); ok {
				keySum += k
			}
		case 1:
			if _, ok := h.Delete(k); ok {
				keySum -= k
			}
		case 2:
			h.Find(k)
		default:
			if sr, ok := h.(dict.SnapshotRanger); ok {
				sr.RangeSnapshot(k, k+100, func(_, _ uint64) bool { return true })
			}
		}
	}
	return keySum
}

// phasedStripeOps runs an Insert phase, a Find phase and a Delete phase
// over the goroutine's private key stripe, checking every result
// against a shadow map; it returns the sum of the keys left behind.
func phasedStripeOps(t *testing.T, g int, h dict.Handle) (keySum uint64) {
	const (
		perPhase = 1200
		stripe   = uint64(1) << 10
	)
	base := 1 + uint64(g)*stripe
	model := make(map[uint64]uint64)
	rng := xrand.New(uint64(g)*7919 + 3)
	for i := 0; i < perPhase; i++ {
		k := base + rng.Uint64n(stripe)
		v := rng.Uint64()
		prev, ins := h.Insert(k, v)
		mv, had := model[k]
		if ins == had || (had && prev != mv) {
			t.Errorf("g%d Insert(%d) = %d,%v; model %d,%v", g, k, prev, ins, mv, had)
			return 0
		}
		if !had {
			model[k] = v
		}
	}
	for i := 0; i < perPhase; i++ {
		k := base + rng.Uint64n(stripe)
		v, ok := h.Find(k)
		mv, had := model[k]
		if ok != had || (had && v != mv) {
			t.Errorf("g%d Find(%d) = %d,%v; model %d,%v", g, k, v, ok, mv, had)
			return 0
		}
	}
	for i := 0; i < perPhase; i++ {
		k := base + rng.Uint64n(stripe)
		prev, del := h.Delete(k)
		mv, had := model[k]
		if del != had || (had && prev != mv) {
			t.Errorf("g%d Delete(%d) = %d,%v; model %d,%v", g, k, prev, del, mv, had)
			return 0
		}
		delete(model, k)
	}
	for k := range model {
		keySum += k
	}
	return keySum
}

// TestRequestPathOptionCensus pins how many independently settable
// values the request path exposes. Changing a count is a decision, not
// a drift: an option survives only if two non-test callers need
// different values — otherwise it is a constant or derived from its
// inputs (ISSUE 23; the PR 20 rule).
func TestRequestPathOptionCensus(t *testing.T) {
	for _, c := range []struct {
		cfg  any
		want int
	}{
		{Config{}, 9},
		{client.Config{}, 4},
		{cluster.Config{}, 6},
	} {
		typ := reflect.TypeOf(c.cfg)
		if got := typ.NumField(); got != c.want {
			t.Errorf("%v has %d fields, want %d: an option survives only if two non-test callers need different values — make the new one a constant or derive it, or argue the census change in the PR", typ, got, c.want)
		}
	}
}
