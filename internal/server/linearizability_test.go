package server

// Client-side linearizability over a live server: the histories are
// recorded at the CLIENT — call stamped before the frame is written,
// return stamped after the response is decoded — so a checker pass
// proves the whole stack (client encode, pipelined wire, one server
// goroutine per connection, tree, response path) preserves the dictionary's
// per-key linearizability, and the cross-shard witness proves the
// server's SNAPSHOT_SCAN keeps the shared-clock atomicity across
// shard boundaries end to end.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dict"
	"repro/internal/linearizability"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// TestRemoteLinearizablePointOps records a concurrent point-op history
// (plus whole-keyset snapshot scans) through remote handles and feeds
// it to the Wing&Gong checker.
func TestRemoteLinearizablePointOps(t *testing.T) {
	_, c := startServer(t, "shard4", 64)
	keys := []uint64{3, 9, 17, 33, 49, 60} // spread across the 4 shards
	history := linearizability.Record(func() linearizability.DictHandle {
		return c.NewHandle().(linearizability.DictHandle)
	}, linearizability.RecordConfig{
		Workers:   4,
		OpsPerKey: 20,
		Keys:      keys,
		Seed:      42,
		RangeOps:  30,
	})
	if len(history) == 0 {
		t.Fatal("no operations recorded")
	}
	if err := linearizability.Check(history, nil); err != nil {
		t.Fatalf("remote history not linearizable: %v", err)
	}
}

// TestRemoteLinearizableBatchOps records a history of MGET/MPUT/MDELETE
// batches (each key of a batch expanded into one per-key operation
// sharing the batch's call/return window — the dict.Batcher contract:
// individually linearizable, batch not atomic) and checks it.
func TestRemoteLinearizableBatchOps(t *testing.T) {
	_, c := startServer(t, "shard4", 64)
	keys := []uint64{3, 9, 17, 33, 49, 60}
	// Sized to keep each per-key subhistory small (the checker's DFS is
	// exponential in the mutually-concurrent op count): ~72 key-slots
	// over 6 keys, concurrency width <= 3 batches.
	const (
		workers   = 3
		batches   = 6 // per worker
		batchSize = 4
	)
	var clock atomic.Int64
	var mu sync.Mutex
	var history []linearizability.Op

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := c.NewHandle()
			b := h.(dict.Batcher)
			rng := xrand.New(uint64(w)*2654435761 + 99)
			bk := make([]uint64, batchSize)
			bv := make([]uint64, batchSize)
			res := make([]uint64, batchSize)
			ok := make([]bool, batchSize)
			ops := make([]linearizability.Op, batchSize)
			for n := 0; n < batches; n++ {
				for i := range bk {
					bk[i] = keys[rng.Intn(len(keys))] // duplicates allowed
					bv[i] = rng.Uint64()%1000 + 1
				}
				kind := linearizability.OpKind(rng.Intn(3)) // find/insert/delete
				call := clock.Add(1)
				switch kind {
				case linearizability.OpFind:
					b.FindBatch(bk, res, ok)
				case linearizability.OpInsert:
					b.InsertBatch(bk, bv, res, ok)
				default:
					b.DeleteBatch(bk, res, ok)
				}
				ret := clock.Add(1)
				for i := range bk {
					ops[i] = linearizability.Op{
						Kind: kind, Key: bk[i], Arg: bv[i],
						OutVal: res[i], OutOK: ok[i],
						Call: call, Return: ret, ThreadID: w,
					}
				}
				mu.Lock()
				history = append(history, ops...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := linearizability.Check(history, nil); err != nil {
		t.Fatalf("remote batch history not linearizable: %v", err)
	}
}

// TestRemoteCrossShardSnapshotWitness runs the write-order witness over
// the wire against a sharded host: a writer sweeps witness keys
// spanning every shard in ascending order, rewriting each to round g
// (Delete+Insert — the wire has no upsert); at any instant at most one
// witness key is absent and the values read, ascending, as a round-g
// prefix followed by a round-(g-1) suffix. Every remote SNAPSHOT_SCAN
// must observe such a cut; the remote weak SCAN provides the teeth
// check (it should eventually tear, proving the witness can fail).
func TestRemoteCrossShardSnapshotWitness(t *testing.T) {
	const m = 64 // witness keys 1,3,...,2m-1 span all 4 shards
	_, c := startServer(t, "shard4", 2*m)
	init := c.NewHandle()
	for i := 0; i < m; i++ {
		init.Insert(uint64(2*i+1), 1_000_000) // "round before round 0"
	}

	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		h := c.NewHandle()
		for g := uint64(1_000_001); !stop.Load(); g++ {
			for i := 0; i < m; i++ {
				k := uint64(2*i + 1)
				h.Delete(k)
				h.Insert(k, g)
			}
		}
	}()
	defer func() {
		stop.Store(true)
		writer.Wait()
	}()

	h := c.NewHandle()
	sr := h.(dict.SnapshotRanger)
	rr := h.(dict.Ranger)

	type obs struct {
		vals    []uint64
		absent  int
		invalid bool
	}
	collect := func(scan func(lo, hi uint64, fn func(k, v uint64) bool)) obs {
		var o obs
		seen := make(map[uint64]uint64, m)
		scan(1, 2*m, func(k, v uint64) bool {
			if k%2 == 1 {
				seen[k] = v
			}
			return true
		})
		for i := 0; i < m; i++ {
			k := uint64(2*i + 1)
			if v, ok := seen[k]; ok {
				o.vals = append(o.vals, v)
			} else {
				o.absent++
			}
		}
		return o
	}
	// torn reports whether the observation could NOT be one atomic cut
	// of the ascending rewriter: more than one mid-rewrite absence, an
	// ascending round step, or a round spread wider than one.
	torn := func(o obs) bool {
		if o.absent > 1 {
			return true
		}
		for i := 1; i < len(o.vals); i++ {
			if o.vals[i] > o.vals[i-1] {
				return true
			}
		}
		return len(o.vals) > 0 && o.vals[0]-o.vals[len(o.vals)-1] > 1
	}

	rounds := 300
	if testing.Short() {
		rounds = 80
	}
	for n := 0; n < rounds; n++ {
		if o := collect(sr.RangeSnapshot); torn(o) {
			t.Fatalf("remote cross-shard snapshot %d torn: absent=%d vals=%v", n, o.absent, o.vals)
		}
	}

	// Teeth: the weak cross-shard scan has no shared-timestamp cut, so
	// under this writer it should eventually show a non-atomic
	// observation. Best-effort — its absence is logged, not failed
	// (the in-process witness in internal/shard proves tearing
	// deterministically).
	tore := false
	for n := 0; n < 10*rounds && !tore; n++ {
		tore = torn(collect(rr.Range))
	}
	if !tore {
		t.Log("weak remote scan never tore (in-process witness covers the teeth check)")
	}
}

// TestRemoteLinearizableAfterPipelinedBatches interleaves batched and
// point operations on the same keys from different handles and checks
// the combined history — batch frames pipeline across wire.MaxBatch
// boundaries while point ops from other connections race them.
func TestRemoteLinearizableAfterPipelinedBatches(t *testing.T) {
	_, c := startServer(t, "occ", 1<<16)
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
	// Two point-op workers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := c.NewHandle()
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
	// One batch worker whose batches span multiple pipelined frames: the
	// two recorded keys ride along inside a big filler batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := c.NewHandle()
		b := h.(dict.Batcher)
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
			// Place the recorded keys mid-frame and in the last frame.
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
		t.Fatalf("mixed point/pipelined-batch history not linearizable: %v", err)
	}
}
