package core

// Differential tests for the batched point operations (internal/abalg's
// batch engine over this store): a batch must produce exactly the
// results of the per-key loop applied in input order — sequentially
// against a twin tree, and under concurrent split/merge churn against a
// shadow map over keys the churn never touches.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// batchOps drives one randomized op mix through FindBatch/InsertBatch/
// DeleteBatch on bth while mirroring it with per-key Find/Insert/Delete
// on lth (possibly on a different tree), failing on any divergence.
func batchOps(t *testing.T, rng *rand.Rand, bth, lth *Thread, keyRange int, iters int) {
	t.Helper()
	var keys, vals, prev, loopPrev []uint64
	var ok, loopOK []bool
	for i := 0; i < iters; i++ {
		n := rng.Intn(100) + 1
		keys = keys[:0]
		vals = vals[:0]
		for j := 0; j < n; j++ {
			keys = append(keys, uint64(rng.Intn(keyRange))+1) // duplicates allowed
			vals = append(vals, uint64(rng.Intn(keyRange))+1)
		}
		prev = append(prev[:0], make([]uint64, n)...)
		loopPrev = append(loopPrev[:0], make([]uint64, n)...)
		ok = append(ok[:0], make([]bool, n)...)
		loopOK = append(loopOK[:0], make([]bool, n)...)
		op := rng.Intn(3)
		switch op {
		case 0:
			bth.InsertBatch(keys, vals, prev, ok)
			for j, k := range keys {
				loopPrev[j], loopOK[j] = lth.Insert(k, vals[j])
			}
		case 1:
			bth.DeleteBatch(keys, prev, ok)
			for j, k := range keys {
				loopPrev[j], loopOK[j] = lth.Delete(k)
			}
		default:
			bth.FindBatch(keys, prev, ok)
			for j, k := range keys {
				loopPrev[j], loopOK[j] = lth.Find(k)
			}
		}
		for j := range keys {
			if prev[j] != loopPrev[j] || ok[j] != loopOK[j] {
				t.Fatalf("iter %d op %d key %d (#%d): batch (%d,%v), loop (%d,%v)",
					i, op, keys[j], j, prev[j], ok[j], loopPrev[j], loopOK[j])
			}
		}
	}
}

// TestBatchDifferentialSequential drives identical random op sequences
// through the batched path on one tree and the per-key loop on a twin,
// checking per-key results and the final key-sums, across the tree
// variants the batched path special-cases.
func TestBatchDifferentialSequential(t *testing.T) {
	variants := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"degree-2-4", []Option{WithDegree(2, 4)}},
		{"elim", []Option{WithElimination()}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			batched := New(v.opts...)
			looped := New(v.opts...)
			bth := batched.NewThread()
			lth := looped.NewThread()
			rng := rand.New(rand.NewSource(99))
			for k := uint64(1); k <= 2000; k += 2 {
				bth.Insert(k, k)
				lth.Insert(k, k)
			}
			batchOps(t, rng, bth, lth, 3000, 300)
			if bs, ls := batched.KeySum(), looped.KeySum(); bs != ls {
				t.Fatalf("key-sums diverged: batched %d, per-key loop %d", bs, ls)
			}
		})
	}
}

// TestBatchDifferentialUnderChurn pins batched results to a shadow map
// while writers churn the tree shape with splitting inserts and merging
// deletes on disjoint keys: keys ≡ 0 (mod 3) belong to the batching
// thread alone, so every batched result over them must equal the
// shadow's sequential state no matter how the other keys move the
// leaves underneath the cached descents. Degree (2,4) maximizes
// structural churn per write. Each writer's work is bounded: at
// GOMAXPROCS=1 an unbounded writer eats a full scheduler slice at every
// yield of the batching loop.
func TestBatchDifferentialUnderChurn(t *testing.T) {
	const keyRange = 6000
	tr := New(WithDegree(2, 4))
	loader := tr.NewThread()
	shadow := make(map[uint64]uint64)
	for k := uint64(3); k <= keyRange; k += 6 { // half the owned keys present
		loader.Insert(k, k*7)
		shadow[k] = k * 7
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			wth := tr.NewThread()
			for n := 0; n < 100_000 && !stop.Load(); n++ {
				k := uint64(rng.Intn(keyRange)) + 1
				if k%3 == 0 {
					k++ // never touch the batching thread's keys
				}
				if rng.Intn(2) == 0 {
					wth.Delete(k)
				} else {
					wth.Insert(k, k)
				}
			}
		}(int64(w) + 1)
	}

	th := tr.NewThread()
	churn := tr.NewThread()
	rng := rand.New(rand.NewSource(5))
	iters := 400
	if testing.Short() {
		iters = 100
	}
	ownedKey := func() uint64 { return uint64(rng.Intn(keyRange/3))*3 + 3 }
	var keys, vals, res []uint64
	var ok []bool
	for i := 0; i < iters && !t.Failed(); i++ {
		// Churn from this goroutine too: single-CPU boxes may never
		// schedule the writers inside this loop, and the differential
		// needs SMOs between batches.
		for j := 0; j < 20; j++ {
			k := uint64(rng.Intn(keyRange)) + 1
			if k%3 == 0 {
				k++
			}
			if rng.Intn(2) == 0 {
				churn.Delete(k)
			} else {
				churn.Insert(k, k)
			}
		}
		runtime.Gosched()
		n := rng.Intn(128) + 1
		keys = keys[:0]
		vals = vals[:0]
		for j := 0; j < n; j++ {
			keys = append(keys, ownedKey())
			vals = append(vals, uint64(rng.Intn(keyRange))+1)
		}
		res = append(res[:0], make([]uint64, n)...)
		ok = append(ok[:0], make([]bool, n)...)
		switch op := rng.Intn(3); op {
		case 0:
			th.InsertBatch(keys, vals, res, ok)
			for j, k := range keys {
				if v, present := shadow[k]; present {
					if ok[j] || res[j] != v {
						t.Errorf("iter %d InsertBatch key %d (#%d): got (%d,%v), shadow has %d", i, k, j, res[j], ok[j], v)
					}
				} else {
					if !ok[j] {
						t.Errorf("iter %d InsertBatch key %d (#%d): not inserted but absent from shadow", i, k, j)
					}
					shadow[k] = vals[j]
				}
			}
		case 1:
			th.DeleteBatch(keys, res, ok)
			for j, k := range keys {
				if v, present := shadow[k]; present {
					if !ok[j] || res[j] != v {
						t.Errorf("iter %d DeleteBatch key %d (#%d): got (%d,%v), shadow has %d", i, k, j, res[j], ok[j], v)
					}
					delete(shadow, k)
				} else if ok[j] {
					t.Errorf("iter %d DeleteBatch key %d (#%d): deleted %d but shadow has nothing", i, k, j, res[j])
				}
			}
		default:
			th.FindBatch(keys, res, ok)
			for j, k := range keys {
				v, present := shadow[k]
				if ok[j] != present || (present && res[j] != v) {
					t.Errorf("iter %d FindBatch key %d (#%d): got (%d,%v), shadow (%d,%v)", i, k, j, res[j], ok[j], v, present)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	// Final sweep: the tree's owned keys must equal the shadow exactly.
	for k := uint64(3); k <= keyRange; k += 3 {
		v, ok := th.Find(k)
		sv, sok := shadow[k]
		if ok != sok || (ok && v != sv) {
			t.Fatalf("final state: key %d tree (%d,%v), shadow (%d,%v)", k, v, ok, sv, sok)
		}
	}
}
