package abalg_test

// The scan and batch engines (scan.go, batch.go) are written once, so
// their tests and benchmarks are too. The tests here run once per tree —
// OCC, Elim, p-OCC and p-Elim, storetest.All — through a Thread's public
// operations; the engines' conformance bodies shared with
// internal/core's and internal/pabtree's suites (snapshot differentials,
// the write-order witness, batch differentials) are in
// internal/abalg/storetest, and TestRangeSnapshotDifferential runs its
// body here on all four at degree (4,11) (a4b11, ops_test.go). Each
// benchmark runs once per node store.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/abalg/storetest"
	"repro/internal/core"
	"repro/internal/pabtree"
	"repro/internal/pmem"
)

func TestRangeSnapshotDifferential(t *testing.T) {
	storetest.RangeSnapshotDifferential(t, a4b11...)
}

func TestDeletesUnderOpenSnapshot(t *testing.T) {
	storetest.DeletesUnderOpenSnapshot(t, storetest.All...)
}

// TestBatchSplitFallback forces the mid-batch leaf-full fallback: a
// batch dense enough that every leaf in its range must split while the
// batch is applying, then drained again in one batch (merging deletes).
func TestBatchSplitFallback(t *testing.T) {
	storetest.ForEach(t, storetest.All, 2, 4, 1<<15, func(t *testing.T, tr storetest.Tree) {
		th := tr.Thread()
		for k := uint64(10); k <= 4000; k += 10 {
			th.Insert(k, k)
		}
		var keys, vals []uint64
		for k := uint64(1); k <= 4000; k++ {
			keys = append(keys, k)
			vals = append(vals, k*3)
		}
		res := make([]uint64, len(keys))
		ok := make([]bool, len(keys))
		th.InsertBatch(keys, vals, res, ok)
		for i, k := range keys {
			if k%10 == 0 {
				if ok[i] || res[i] != k {
					t.Fatalf("key %d: expected present with %d, got (%d,%v)", k, k, res[i], ok[i])
				}
			} else if !ok[i] {
				t.Fatalf("key %d: insert did not land", k)
			}
		}
		if got, want := tr.Len(), 4000; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree invalid after splitting batch: %v", err)
		}
		th.DeleteBatch(keys, res, ok)
		for i, k := range keys {
			want := k * 3
			if k%10 == 0 {
				want = k
			}
			if !ok[i] || res[i] != want {
				t.Fatalf("key %d: deleted (%d,%v), want (%d,true)", k, res[i], ok[i], want)
			}
		}
		if got := tr.Len(); got != 0 {
			t.Fatalf("Len = %d after draining batch, want 0", got)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree invalid after merging batch: %v", err)
		}
	})
}

// TestBatchLengthMismatchPanics pins the dict.Batcher length contract.
func TestBatchLengthMismatchPanics(t *testing.T) {
	storetest.ForEach(t, storetest.All, 2, 11, 64, func(t *testing.T, tr storetest.Tree) {
		th := tr.Thread()
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched slice lengths did not panic", name)
				}
			}()
			f()
		}
		keys := []uint64{1, 2, 3}
		short := make([]uint64, 2)
		oks := make([]bool, 3)
		mustPanic("FindBatch", func() { th.FindBatch(keys, short, oks) })
		mustPanic("InsertBatch", func() { th.InsertBatch(keys, short, short, oks) })
		mustPanic("DeleteBatch", func() { th.DeleteBatch(keys, short, oks) })
	})
}

// TestScanPathCacheWeakRangeStableKeys checks the weak Range fast path
// under churn: even keys are never touched by writers, so every scan
// must report each in-range even key exactly once, in sorted order,
// with its original value — regardless of how much the odd keys churn
// the tree's shape underneath the cache. Degree (2,4) maximizes
// structural churn per write.
func TestScanPathCacheWeakRangeStableKeys(t *testing.T) {
	const keyRange = 4000
	oddKey := func(rng *rand.Rand) uint64 { return uint64(rng.Intn(keyRange/2))*2 + 1 }
	storetest.ForEach(t, storetest.All, 2, 4, 1<<17, func(t *testing.T, tr storetest.Tree) {
		loader := tr.Thread()
		for k := uint64(2); k <= keyRange; k += 2 {
			loader.Insert(k, k*7)
		}
		stop := storetest.Churn(tr, 3, 100_000, 100, oddKey)
		defer stop()

		th, local := tr.Thread(), tr.Thread()
		rng := rand.New(rand.NewSource(7))
		iters := 400
		if testing.Short() {
			iters = 100
		}
		for i := 0; i < iters; i++ {
			// Single-CPU boxes: churn odd keys from this goroutine too, so
			// the tree reshapes between scans even when the writer
			// goroutines never get scheduled.
			for j := 0; j < 20; j++ {
				if k := oddKey(rng); rng.Intn(2) == 0 {
					local.Delete(k)
				} else {
					local.Insert(k, k)
				}
			}
			runtime.Gosched()
			lo := uint64(rng.Intn(keyRange-400)) + 1
			hi := lo + uint64(rng.Intn(400))
			prev, next := uint64(0), lo+lo%2 // next: the first even key >= lo
			th.Range(lo, hi, func(k, v uint64) bool {
				if k <= prev || k < lo || k > hi {
					t.Errorf("iter %d [%d,%d]: key %d out of order or range (prev %d)", i, lo, hi, k, prev)
					return false
				}
				prev = k
				if k%2 == 0 {
					if k != next || v != k*7 {
						t.Errorf("iter %d [%d,%d]: got stable key %d=%d, want %d=%d next", i, lo, hi, k, v, next, next*7)
						return false
					}
					next = k + 2
				}
				return true
			})
			if t.Failed() {
				break
			}
			if last := hi - hi%2; next <= last {
				t.Errorf("iter %d [%d,%d]: stable keys from %d to %d missing", i, lo, hi, next, last)
				break
			}
		}
	})
}

// TestRangeSnapshotVersionsPruned checks that writers prune version
// chains once no scan needs them: after interleaved scanning and writes
// and a quiescent sweep of writes, no live leaf may retain more than the
// pruning boundary entry, nor after quiescent splits and merges.
func TestRangeSnapshotVersionsPruned(t *testing.T) {
	storetest.ForEach(t, storetest.All, 2, 4, 1<<12, func(t *testing.T, tr storetest.Tree) {
		th := tr.Thread()
		for k := uint64(1); k <= 200; k++ {
			th.Insert(k, k)
		}
		for i := 0; i < 50; i++ {
			th.RangeSnapshot(1, 200, func(k, v uint64) bool { return true })
			th.Upsert(uint64(i%200)+1, uint64(i))
		}
		if _, versions := tr.RQStats(); versions == 0 {
			t.Fatal("interleaved scans and writes created no leaf versions")
		}
		// No scan is in flight: one more write to each leaf must leave at
		// most one chained version per leaf (the pruning boundary entry).
		for k := uint64(1); k <= 200; k++ {
			th.Upsert(k, k)
		}
		if depth := tr.LongestChain(); depth > 1 {
			t.Fatalf("a leaf retains %d versions with no scans active", depth)
		}
		// Splits and merges with no scan in flight hand the new leaves no
		// history, since no scan can read it: chains must not grow
		// inheritance nodes.
		for k := uint64(201); k <= 400; k++ {
			th.Insert(k, k)
		}
		for k := uint64(1); k <= 400; k++ {
			if k%4 != 0 {
				th.Delete(k)
			}
		}
		if depth := tr.LongestChain(); depth > 1 {
			t.Fatalf("a leaf retains %d chain entries after splits and merges with no scans active", depth)
		}
	})
}

// TestScanCallbackPointOps exercises the documented callback contract:
// fn may run point operations on the scanning Thread itself. For the
// persistent trees that relies on epoch critical sections nesting (the
// point op's exit must not end the scan's section, or the scan's cached
// offsets could be recycled under it). Background churn keeps slot
// retirement flowing while the scan is in flight.
func TestScanCallbackPointOps(t *testing.T) {
	const keyRange = 4000
	oddKey := func(rng *rand.Rand) uint64 { return uint64(rng.Intn(keyRange/2))*2 + 1 }
	storetest.ForEach(t, storetest.All, 2, 4, 1<<17, func(t *testing.T, tr storetest.Tree) {
		th := tr.Thread()
		for k := uint64(2); k <= keyRange; k += 2 {
			th.Insert(k, k) // stable even keys
		}
		stop := storetest.Churn(tr, 1, 100_000, 9, oddKey)
		defer stop()
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 200; i++ {
			next := uint64(2)
			th.RangeSnapshot(1, keyRange, func(k, v uint64) bool {
				if k%2 == 1 {
					return true
				}
				if k != next || v != k {
					t.Errorf("iter %d: expected stable key %d, got %d=%d", i, next, k, v)
					return false
				}
				next = k + 2
				// Point ops on the scanning Thread, mid-scan.
				if _, ok := th.Find(k); !ok {
					t.Errorf("iter %d: nested Find(%d) missed", i, k)
					return false
				}
				if k%64 == 0 {
					j := oddKey(rng)
					th.Delete(j)
					th.Insert(j, j)
				}
				return true
			})
			if t.Failed() {
				break
			}
			if next != keyRange+2 {
				t.Errorf("iter %d: scan stopped at %d, want all %d stable keys", i, next, keyRange/2)
				break
			}
			runtime.Gosched()
		}
	})
}

// benchKeys is the prefilled key range of the benchmarks: every key in
// [1, benchKeys] is present, so a scan of length L visits exactly L keys.
const benchKeys = 100_000

// benchStores are the two node stores, each as its OCC tree; open
// returns a Thread of a fresh tree prefilled with benchKeys keys, and a
// constructor of further Threads. The arena holds a slot per key, five
// times what the prefill claims.
var benchStores = []struct {
	name string
	open func() (th storetest.Handle, thread func() storetest.Handle)
}{
	{"core", func() (storetest.Handle, func() storetest.Handle) {
		tr := core.New()
		return prefill(tr.NewThread()), func() storetest.Handle { return tr.NewThread() }
	}},
	{"pabtree", func() (storetest.Handle, func() storetest.Handle) {
		tr := pabtree.New(pmem.New(benchKeys * pabtree.NodeWords))
		return prefill(tr.NewThread()), func() storetest.Handle { return tr.NewThread() }
	}},
}

func prefill(th storetest.Handle) storetest.Handle {
	for k := uint64(1); k <= benchKeys; k++ {
		th.Insert(k, k)
	}
	return th
}

// benchScan runs scan over rotating intervals of each length, per
// store: the scan fast path (path-cached descent, per-thread scratch,
// version pooling). allocs/op must read 0 (TestAllocsScanFastPath is
// the hard gate).
func benchScan(b *testing.B, scan func(th storetest.Handle, lo, hi uint64, fn func(k, v uint64) bool)) {
	for _, st := range benchStores {
		for _, L := range []uint64{10, 100, 1000} {
			b.Run(fmt.Sprintf("%s/scanlen=%d", st.name, L), func(b *testing.B) {
				th, _ := st.open()
				var sink uint64
				fn := func(_, v uint64) bool {
					sink += v
					return true
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := uint64(i)%(benchKeys-L) + 1
					scan(th, lo, lo+L-1, fn)
				}
				_ = sink
			})
		}
	}
}

// BenchmarkScanWeak measures the per-leaf-atomic Range hot path.
func BenchmarkScanWeak(b *testing.B) {
	benchScan(b, func(th storetest.Handle, lo, hi uint64, fn func(k, v uint64) bool) { th.Range(lo, hi, fn) })
}

// BenchmarkScanSnapshot measures the linearizable RangeSnapshot hot path
// (timestamp draw + versioned leaf collects).
func BenchmarkScanSnapshot(b *testing.B) {
	benchScan(b, func(th storetest.Handle, lo, hi uint64, fn func(k, v uint64) bool) { th.RangeSnapshot(lo, hi, fn) })
}

// BenchmarkWriteUnderScan measures the updater's cost while snapshot
// scans are continuously in flight: every write that observes a fresh
// scan timestamp must preserve the leaf's pre-write state on its version
// chain, so this is the version-chain allocation hot path.
func BenchmarkWriteUnderScan(b *testing.B) {
	for _, st := range benchStores {
		b.Run(st.name, func(b *testing.B) {
			th, thread := st.open()
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				sth := thread()
				var sink uint64
				// Short rotating scans keep the scan timestamp advancing
				// quickly, so most measured writes hit the
				// version-preservation path.
				for lo := uint64(1); ; lo = lo%benchKeys + 1 {
					select {
					case <-stop:
						return
					default:
					}
					sth.RangeSnapshot(lo, lo+999, func(_, v uint64) bool {
						sink += v
						return true
					})
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i)%benchKeys + 1
				if i&1 == 0 {
					th.Delete(k)
				} else {
					th.Insert(k, k)
				}
			}
			b.StopTimer()
			close(stop)
			<-done
		})
	}
}

// benchBatch compares a batched operation against the per-key loop on
// uniform random keys, per store: one benchmark op is one batch of size
// keys, so ns/op of the loop and batch variants at one size compare
// directly.
func benchBatch(b *testing.B, seed int64, loop, batch func(th storetest.Handle, keys, res []uint64, ok []bool)) {
	for _, st := range benchStores {
		for _, size := range []int{1, 8, 64, 512} {
			keys := make([]uint64, size)
			res := make([]uint64, size)
			ok := make([]bool, size)
			for _, v := range []struct {
				name string
				run  func(th storetest.Handle, keys, res []uint64, ok []bool)
			}{{"loop", loop}, {"batch", batch}} {
				b.Run(fmt.Sprintf("%s/%s-%d", st.name, v.name, size), func(b *testing.B) {
					th, _ := st.open()
					rng := rand.New(rand.NewSource(seed))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := range keys {
							keys[j] = uint64(rng.Intn(benchKeys)) + 1
						}
						v.run(th, keys, res, ok)
					}
				})
			}
		}
	}
}

// BenchmarkBatchFind: MultiGet, batched vs per-key loop.
func BenchmarkBatchFind(b *testing.B) {
	benchBatch(b, 1, func(th storetest.Handle, keys, _ []uint64, _ []bool) {
		for _, k := range keys {
			th.Find(k)
		}
	}, func(th storetest.Handle, keys, res []uint64, ok []bool) {
		th.FindBatch(keys, res, ok)
	})
}

// BenchmarkBatchUpdate measures a delete+reinsert cycle of size uniform
// keys — the steady-state update shape (tree size constant).
func BenchmarkBatchUpdate(b *testing.B) {
	benchBatch(b, 2, func(th storetest.Handle, keys, _ []uint64, _ []bool) {
		for _, k := range keys {
			th.Delete(k)
		}
		for _, k := range keys {
			th.Insert(k, k)
		}
	}, func(th storetest.Handle, keys, res []uint64, ok []bool) {
		th.DeleteBatch(keys, res, ok)
		th.InsertBatch(keys, keys, res, ok)
	})
}
