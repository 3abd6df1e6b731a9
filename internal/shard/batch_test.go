package shard

// Tests for cross-shard batched point operations: differential against
// the per-key loop (covering both the native ABtree sub-batchers and
// the per-key fallback for shards without one), a shadow-map churn
// test, and the 0-alloc steady-state guard.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catree"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/rq"
)

// selfDict adapts the directly concurrent-safe competitors (no native
// Batcher, so the shard layer's per-key fallback serves them).
type selfHandle interface {
	Find(key uint64) (uint64, bool)
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
	KeySum() uint64
}

type selfDict struct{ h selfHandle }

func (d selfDict) NewHandle() dict.Handle { return d.h }
func (d selfDict) KeySum() uint64         { return d.h.KeySum() }

// batchDifferential drives random batches through a partitioned dict's
// Batcher and mirrors them per-key on a twin partition.
func batchDifferential(t *testing.T, build func() dict.Dict) {
	t.Helper()
	batched := build()
	looped := build()
	bh, ok := batched.NewHandle().(dict.Batcher)
	if !ok {
		t.Fatal("composed shard handle does not implement dict.Batcher")
	}
	lh := looped.NewHandle()
	rng := rand.New(rand.NewSource(31))
	const keyRange = 4000
	var keys, vals, prev, loopPrev []uint64
	var oks, loopOK []bool
	for i := 0; i < 300; i++ {
		n := rng.Intn(128) + 1
		keys = keys[:0]
		vals = vals[:0]
		for j := 0; j < n; j++ {
			keys = append(keys, uint64(rng.Intn(keyRange))+1)
			vals = append(vals, uint64(rng.Intn(keyRange))+1)
		}
		prev = append(prev[:0], make([]uint64, n)...)
		loopPrev = append(loopPrev[:0], make([]uint64, n)...)
		oks = append(oks[:0], make([]bool, n)...)
		loopOK = append(loopOK[:0], make([]bool, n)...)
		op := rng.Intn(3)
		switch op {
		case 0:
			bh.InsertBatch(keys, vals, prev, oks)
			for j, k := range keys {
				loopPrev[j], loopOK[j] = lh.Insert(k, vals[j])
			}
		case 1:
			bh.DeleteBatch(keys, prev, oks)
			for j, k := range keys {
				loopPrev[j], loopOK[j] = lh.Delete(k)
			}
		default:
			bh.FindBatch(keys, prev, oks)
			for j, k := range keys {
				loopPrev[j], loopOK[j] = lh.Find(k)
			}
		}
		for j := range keys {
			if prev[j] != loopPrev[j] || oks[j] != loopOK[j] {
				t.Fatalf("iter %d op %d key %d (#%d): batch (%d,%v), loop (%d,%v)",
					i, op, keys[j], j, prev[j], oks[j], loopPrev[j], loopOK[j])
			}
		}
	}
	if bs, ls := batched.KeySum(), looped.KeySum(); bs != ls {
		t.Fatalf("key-sums diverged: batched %d, per-key loop %d", bs, ls)
	}
}

func TestShardBatchDifferentialNative(t *testing.T) {
	batchDifferential(t, func() dict.Dict {
		d, _ := newCoreShards(4, 4000)
		return d
	})
}

func TestShardBatchDifferentialFallback(t *testing.T) {
	batchDifferential(t, func() dict.Dict {
		return New(4, 4000, func(int, *rq.Clock) dict.Dict {
			return selfDict{catree.New()}
		})
	})
}

// TestShardBatchUnderChurn: batched ops over keys ≡ 0 (mod 3) must
// track a shadow map while churn threads hammer the other keys across
// every shard (including across shard boundaries). The churn threads
// yield every churnYield ops: the batch loop yields once an iteration,
// and at GOMAXPROCS=1 a churn thread that never yields keeps the
// processor until it is preempted, a scheduler slice per thread per
// iteration (7.6 s per run instead of well under one).
func TestShardBatchUnderChurn(t *testing.T) {
	const churnYield = 8
	const keyRange = 6000
	d, _ := newCoreShards(8, keyRange)
	h := d.NewHandle()
	bh := h.(dict.Batcher)
	shadow := make(map[uint64]uint64)
	for k := uint64(3); k <= keyRange; k += 6 {
		h.Insert(k, k*7)
		shadow[k] = k * 7
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			wh := d.NewHandle()
			for n := 1; !stop.Load(); n++ {
				if n%churnYield == 0 {
					runtime.Gosched()
				}
				k := uint64(rng.Intn(keyRange)) + 1
				if k%3 == 0 {
					k++
				}
				if rng.Intn(2) == 0 {
					wh.Delete(k)
				} else {
					wh.Insert(k, k)
				}
			}
		}(int64(w) + 1)
	}

	rng := rand.New(rand.NewSource(5))
	iters := 300
	if testing.Short() {
		iters = 80
	}
	var keys, vals, res []uint64
	var ok []bool
	for i := 0; i < iters && !t.Failed(); i++ {
		runtime.Gosched()
		n := rng.Intn(128) + 1
		keys = keys[:0]
		vals = vals[:0]
		for j := 0; j < n; j++ {
			keys = append(keys, uint64(rng.Intn(keyRange/3))*3+3)
			vals = append(vals, uint64(rng.Intn(keyRange))+1)
		}
		res = append(res[:0], make([]uint64, n)...)
		ok = append(ok[:0], make([]bool, n)...)
		switch rng.Intn(3) {
		case 0:
			bh.InsertBatch(keys, vals, res, ok)
			for j, k := range keys {
				if v, present := shadow[k]; present {
					if ok[j] || res[j] != v {
						t.Errorf("iter %d InsertBatch key %d: got (%d,%v), shadow has %d", i, k, res[j], ok[j], v)
					}
				} else {
					if !ok[j] {
						t.Errorf("iter %d InsertBatch key %d: not inserted but absent from shadow", i, k)
					}
					shadow[k] = vals[j]
				}
			}
		case 1:
			bh.DeleteBatch(keys, res, ok)
			for j, k := range keys {
				if v, present := shadow[k]; present {
					if !ok[j] || res[j] != v {
						t.Errorf("iter %d DeleteBatch key %d: got (%d,%v), shadow has %d", i, k, res[j], ok[j], v)
					}
					delete(shadow, k)
				} else if ok[j] {
					t.Errorf("iter %d DeleteBatch key %d: deleted %d but shadow has nothing", i, k, res[j])
				}
			}
		default:
			bh.FindBatch(keys, res, ok)
			for j, k := range keys {
				v, present := shadow[k]
				if ok[j] != present || (present && res[j] != v) {
					t.Errorf("iter %d FindBatch key %d: got (%d,%v), shadow (%d,%v)", i, k, res[j], ok[j], v, present)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	for k := uint64(3); k <= keyRange; k += 3 {
		v, okv := h.Find(k)
		sv, sok := shadow[k]
		if okv != sok || (okv && v != sv) {
			t.Fatalf("final state: key %d dict (%d,%v), shadow (%d,%v)", k, v, okv, sv, sok)
		}
	}
}

// TestAllocsCrossShardBatch: a warmed-up cross-shard batch (native
// sub-batchers) allocates nothing — staging, routing and sub-batch
// gather/scatter all live in per-handle scratch.
func TestAllocsCrossShardBatch(t *testing.T) {
	const keyRange = 10_000
	d := New(4, keyRange, func(_ int, c *rq.Clock) dict.Dict {
		return coreDict{T: core.New(core.WithRQClock(c))}
	})
	h := d.NewHandle()
	for k := uint64(1); k <= keyRange; k++ {
		h.Insert(k, k)
	}
	bh := h.(dict.Batcher)
	const n = 64
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	res := make([]uint64, n)
	ok := make([]bool, n)
	for i := range keys {
		// Spread across all four shards, one key per leaf.
		keys[i] = uint64(100 + 150*i)
		vals[i] = keys[i]
	}
	bh.FindBatch(keys, res, ok) // warm the scratch
	if avg := testing.AllocsPerRun(200, func() { bh.FindBatch(keys, res, ok) }); avg != 0 {
		t.Errorf("cross-shard FindBatch allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		bh.DeleteBatch(keys, res, ok)
		bh.InsertBatch(keys, vals, res, ok)
	}); avg != 0 {
		t.Errorf("cross-shard DeleteBatch+InsertBatch allocates %.2f/op, want 0", avg)
	}
}
