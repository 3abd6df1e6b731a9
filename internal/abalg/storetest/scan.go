package storetest

// Bodies of the scan and batch engines (abalg/scan.go, abalg/batch.go)
// under concurrent split/merge churn: snapshot atomicity witnessed by
// write order and by a reference model, the path-cached scan against a
// full re-descent at the same timestamp, and batches against the
// per-key loop.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pabtree"
	"repro/internal/rq"
)

// RangeSnapshotWriteOrderWitness checks whole-scan atomicity. One
// writer sweeps the odd "witness" keys in ascending order, writing round
// number g to each; concurrently it toggles the even "chaff" keys to
// force splits and merges through the witness leaves (degree (2,4)).
// Any atomic snapshot of the witness keys must read as a round-g prefix
// followed by a round-(g-1) suffix; a torn scan shows up as an
// out-of-order or spread-out value pattern. The plain per-leaf-atomic
// Range does not pass this under churn; RangeSnapshot must.
func RangeSnapshotWriteOrderWitness(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 4, 1<<14, func(t *testing.T, tr Tree) {
		const m = 120 // witness keys: 1, 3, 5, ..., 2m-1
		init := tr.Thread()
		for i := 0; i < m; i++ {
			init.Insert(uint64(2*i+1), 0)
		}

		var stop atomic.Bool
		var writer sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			th := tr.Thread()
			chaff := false
			for g := uint64(1); !stop.Load(); g++ {
				for i := 0; i < m; i++ {
					th.Upsert(uint64(2*i+1), g)
					if i%3 == 0 { // churn: even keys come and go
						k := uint64(2*i + 2)
						if chaff {
							th.Insert(k, k)
						} else {
							th.Delete(k)
						}
					}
				}
				chaff = !chaff
			}
		}()

		scans, rounds := 2, 400
		if testing.Short() {
			scans, rounds = 1, 100
		}
		var scanners sync.WaitGroup
		for s := 0; s < scans; s++ {
			scanners.Add(1)
			go func() {
				defer scanners.Done()
				th := tr.Thread()
				for n := 0; n < rounds; n++ {
					var vals []uint64
					th.RangeSnapshot(1, 2*m, func(k, v uint64) bool {
						if k%2 == 1 {
							vals = append(vals, v)
						}
						return true
					})
					if len(vals) != m {
						t.Errorf("scan %d saw %d witness keys, want %d", n, len(vals), m)
						return
					}
					for i := 1; i < m; i++ {
						if vals[i] > vals[i-1] {
							t.Errorf("scan %d torn: witness %d has round %d after round %d", n, i, vals[i], vals[i-1])
							return
						}
					}
					if vals[0]-vals[m-1] > 1 {
						t.Errorf("scan %d torn: rounds spread %d..%d", n, vals[m-1], vals[0])
						return
					}
				}
			}()
		}
		scanners.Wait()
		stop.Store(true)
		writer.Wait()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// RangeSnapshotDifferential cross-checks concurrent RangeSnapshot
// results against a mutex-guarded reference model under insert/delete
// churn that constantly splits and merges leaves. Every model entry
// whose last transition happened before the scan began (and that was not
// touched during the scan) must appear in — or be absent from — the
// snapshot exactly as the model says, with the model's value.
func RangeSnapshotDifferential(t *testing.T, kinds ...Kind) {
	type ref struct {
		present  bool
		inflight bool
		val      uint64
		seq      uint64
	}
	const (
		keyRange = 512
		writers  = 4
	)
	ForEach(t, kinds, 2, 4, 1<<16, func(t *testing.T, tr Tree) {
		var mu sync.Mutex
		var seq uint64
		model := make(map[uint64]*ref)
		entry := func(k uint64) *ref {
			if model[k] == nil {
				model[k] = &ref{}
			}
			return model[k]
		}

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.Thread()
				rng := rand.New(rand.NewSource(int64(w)*2654435761 + 99))
				for !stop.Load() {
					// Each writer owns keys ≡ w (mod writers).
					k := uint64(w) + uint64(writers*rng.Intn(keyRange/writers)) + 1
					v := uint64(rng.Intn(1000)) + 1
					mu.Lock()
					e := entry(k)
					ins := !e.present
					e.inflight = true
					seq++
					e.seq = seq
					mu.Unlock()
					if ins {
						th.Insert(k, v)
					} else {
						th.Delete(k)
						v = 0
					}
					mu.Lock()
					e.present = ins
					e.val = v
					e.inflight = false
					seq++
					e.seq = seq
					mu.Unlock()
				}
			}(w)
		}

		// Let the writers build up a populated, churning tree before the
		// scans start, so the model makes real claims.
		for {
			mu.Lock()
			populated := len(model) >= keyRange/4
			mu.Unlock()
			if populated {
				break
			}
			runtime.Gosched()
		}

		th := tr.Thread()
		rounds := 300
		if testing.Short() {
			rounds = 60
		}
		claims := 0
		for n := 0; n < rounds; n++ {
			mu.Lock()
			startSeq := seq
			mu.Unlock()
			snap := make(map[uint64]uint64)
			th.RangeSnapshot(1, keyRange+writers, func(k, v uint64) bool {
				snap[k] = v
				return true
			})
			mu.Lock()
			for k, e := range model {
				if e.seq > startSeq || e.inflight {
					continue // touched around the scan: no claim
				}
				claims++
				v, in := snap[k]
				if e.present && (!in || v != e.val) {
					t.Errorf("scan %d: key %d=%d confirmed before scan, snapshot has (%d,%v)", n, k, e.val, v, in)
				}
				if !e.present && in {
					t.Errorf("scan %d: key %d confirmed absent before scan, snapshot has %d", n, k, v)
				}
			}
			mu.Unlock()
			if t.Failed() {
				break
			}
		}
		stop.Store(true)
		wg.Wait()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if scans, _ := tr.RQStats(); scans == 0 {
			t.Fatal("no scans recorded")
		}
		if claims < rounds*keyRange/8 {
			t.Fatalf("model made only %d claims: scans did not overlap churn", claims)
		}
	})
}

// DeletesUnderOpenSnapshot deletes every key of a tree of n from inside
// the first callback of one RangeSnapshot over all of them, once in
// ascending order and once in random order. The scan must still report
// each key with its value, in order, and the history written into
// version chains for it must average at most 2b pairs per delete: the
// leaves that replace merged or redistributed ones link the replaced
// leaves' history rather than copy it (internal/rq), where copying made
// ascending deletes under one scan quadratic.
func DeletesUnderOpenSnapshot(t *testing.T, kinds ...Kind) {
	const (
		n    = 4096
		a, b = 2, 11
	)
	ascending := make([]uint64, n)
	for i := range ascending {
		ascending[i] = uint64(i + 1)
	}
	shuffled := append([]uint64(nil), ascending...)
	rand.New(rand.NewSource(7)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range []struct {
		name string
		keys []uint64
	}{{"ascending", ascending}, {"random", shuffled}} {
		t.Run(order.name, func(t *testing.T) {
			ForEach(t, kinds, a, b, 1<<15, func(t *testing.T, tr Tree) {
				th := tr.Thread()
				for _, k := range ascending {
					th.Insert(k, 7*k)
				}
				before := tr.RQPairs()
				next := uint64(1)
				th.RangeSnapshot(1, n, func(k, v uint64) bool {
					if k != next || v != 7*k {
						t.Errorf("scan reported (%d, %d), want (%d, %d)", k, v, next, 7*next)
						return false
					}
					if next++; k == 1 {
						for _, d := range order.keys {
							if _, ok := th.Delete(d); !ok {
								t.Errorf("delete %d under the scan missed", d)
								return false
							}
						}
					}
					return true
				})
				if next != n+1 && !t.Failed() {
					t.Errorf("scan stopped after %d of %d keys", next-1, n)
				}
				if got := tr.Len(); got != 0 {
					t.Errorf("Len = %d after deleting every key", got)
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
				perDelete := float64(tr.RQPairs()-before) / n
				t.Logf("%.2f pairs written into history per delete", perDelete)
				if perDelete > 2*b {
					t.Errorf("%.2f pairs written into history per delete, want <= 2b = %d", perDelete, 2*b)
				}
			})
		})
	}
}

// ScanPathCacheDifferential runs two snapshot scans at the SAME
// linearization timestamp — one through the warm path cache, one with
// the cache disabled (full re-descent per hop, the pre-cache
// algorithm) — while writers churn the tree with splitting inserts and
// merging deletes. A snapshot at a fixed timestamp is unique, so any
// divergence is a fast-path bug. Degree (2,4) maximizes structural
// churn per write; every SMO of a persistent tree allocates node slots
// whose reclamation trails by an epoch grace period, so its arena has
// generous headroom and the background writers' total work is bounded
// (Churn), so slot demand cannot outrun reclamation on any scheduling.
func ScanPathCacheDifferential(t *testing.T, kinds ...Kind) {
	const keyRange = 4000
	ForEach(t, kinds, 2, 4, 1<<23/pabtree.NodeWords, func(t *testing.T, tr Tree) {
		loader := tr.Thread()
		for k := uint64(1); k <= keyRange; k++ {
			loader.Insert(k, k)
		}
		stop := Churn(tr, 3, 100_000, 1, func(rng *rand.Rand) uint64 { return uint64(rng.Intn(keyRange)) + 1 })
		defer stop()

		cached, fresh, churn := tr.Thread(), tr.Thread(), tr.Thread()
		tr.NoScanCache(fresh)
		sc := tr.Register()
		rng := rand.New(rand.NewSource(42))
		iters := 400
		if testing.Short() {
			iters = 100
		}
		var got, want []rq.Pair
		for i := 0; i < iters; i++ {
			// Churn from this goroutine too: on a single-CPU box the
			// writer goroutines may never be scheduled inside this tight
			// loop, and the differential needs version-chain and SMO
			// traffic between the two same-timestamp scans' descents.
			for j := 0; j < 20; j++ {
				k := uint64(rng.Intn(keyRange)) + 1
				if rng.Intn(2) == 0 {
					churn.Delete(k)
				} else {
					churn.Insert(k, k*3)
				}
			}
			runtime.Gosched()
			lo := uint64(rng.Intn(keyRange-200)) + 1
			hi := lo + uint64(rng.Intn(200))
			ts := sc.Begin()
			got = got[:0]
			want = want[:0]
			// The cached thread carries its cache state across
			// iterations; its scan must agree with the full re-descent
			// at the same timestamp.
			cached.RangeSnapshotAt(ts, lo, hi, func(k, v uint64) bool {
				got = append(got, rq.Pair{K: k, V: v})
				return true
			})
			fresh.RangeSnapshotAt(ts, lo, hi, func(k, v uint64) bool {
				want = append(want, rq.Pair{K: k, V: v})
				return true
			})
			sc.End()
			if len(got) != len(want) {
				t.Fatalf("iter %d [%d,%d] ts=%d: cached scan returned %d pairs, full re-descent %d", i, lo, hi, ts, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("iter %d [%d,%d] ts=%d: pair %d differs: cached %+v, full %+v", i, lo, hi, ts, j, got[j], want[j])
				}
			}
		}
		stop()
		if _, versions := tr.RQStats(); versions == 0 {
			t.Fatal("churn produced no preserved versions; the differential exercised nothing")
		}
	})
}

// batchOps drives one randomized op mix through FindBatch/InsertBatch/
// DeleteBatch on bth while mirroring it with per-key Find/Insert/Delete
// on lth (possibly on a different tree), failing on any divergence.
func batchOps(t *testing.T, rng *rand.Rand, bth, lth Handle, keyRange int, iters int) {
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

// BatchDifferentialSequential drives identical random op sequences
// through the batched path on one tree and the per-key loop on a twin,
// checking per-key results and the final key-sums: a batch must produce
// exactly the results of the per-key loop applied in input order.
func BatchDifferentialSequential(t *testing.T, kinds ...Kind) {
	for _, kind := range kinds {
		t.Run(kind.Name, func(t *testing.T) {
			batched, looped := kind.Open(2, 11, 1<<15), kind.Open(2, 11, 1<<15)
			bth, lth := batched.Thread(), looped.Thread()
			rng := rand.New(rand.NewSource(99))
			for k := uint64(1); k <= 2000; k += 2 {
				bth.Insert(k, k)
				lth.Insert(k, k)
			}
			batchOps(t, rng, bth, lth, 3000, 300)
			if bs, ls := batched.KeySum(), looped.KeySum(); bs != ls {
				t.Fatalf("key-sums diverged: batched %d, per-key loop %d", bs, ls)
			}
			if err := batched.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BatchDifferentialUnderChurn pins batched results to a shadow map
// while writers churn the tree shape with splitting inserts and merging
// deletes on disjoint keys: keys ≡ 0 (mod 3) belong to the batching
// thread alone, so every batched result over them must equal the
// shadow's sequential state no matter how the other keys move the
// leaves underneath the cached descents. Degree (2,4) maximizes
// structural churn per write.
func BatchDifferentialUnderChurn(t *testing.T, kinds ...Kind) {
	const keyRange = 6000
	otherKey := func(rng *rand.Rand) uint64 {
		k := uint64(rng.Intn(keyRange)) + 1
		if k%3 == 0 {
			k++ // never touch the batching thread's keys
		}
		return k
	}
	ForEach(t, kinds, 2, 4, 1<<17, func(t *testing.T, tr Tree) {
		loader := tr.Thread()
		shadow := make(map[uint64]uint64)
		for k := uint64(3); k <= keyRange; k += 6 { // half the owned keys present
			loader.Insert(k, k*7)
			shadow[k] = k * 7
		}
		stop := Churn(tr, 3, 100_000, 1, otherKey)
		defer stop()

		th, churn := tr.Thread(), tr.Thread()
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
				if k := otherKey(rng); rng.Intn(2) == 0 {
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
		stop()
		// Final sweep: the tree's owned keys must equal the shadow exactly.
		for k := uint64(3); k <= keyRange; k += 3 {
			v, ok := th.Find(k)
			sv, sok := shadow[k]
			if ok != sok || (ok && v != sv) {
				t.Fatalf("final state: key %d tree (%d,%v), shadow (%d,%v)", k, v, ok, sv, sok)
			}
		}
	})
}
