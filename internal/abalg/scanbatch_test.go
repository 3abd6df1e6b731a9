package abalg_test

// The scan and batch engines (scan.go, batch.go) are written once, so
// their tests and benchmarks are too: each test runs once per tree —
// OCC, Elim, p-OCC and p-Elim — through a Thread's public operations,
// and each benchmark once per node store.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abalg"
	"repro/internal/core"
	"repro/internal/pabtree"
	"repro/internal/pmem"
)

// handle is what the tests drive: a *core.Thread or a *pabtree.Thread.
type handle interface {
	Insert(k, v uint64) (uint64, bool)
	Delete(k uint64) (uint64, bool)
	Find(k uint64) (uint64, bool)
	Upsert(k, v uint64)
	Range(lo, hi uint64, fn func(k, v uint64) bool)
	RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool)
	FindBatch(keys, vals []uint64, found []bool)
	InsertBatch(keys, vals, prev []uint64, inserted []bool)
	DeleteBatch(keys, prev []uint64, deleted []bool)
}

// tree is one opened tree.
type tree struct {
	thread   func() handle
	validate func() error
	len      func() int
	keySum   func() uint64
	scan     func(fn func(k, v uint64))
	rqStats  func() (scans, versions uint64)
	// longestChain walks the quiescent tree through the seam and returns
	// the longest version chain hanging off a reachable leaf.
	longestChain func() int
}

// trees are the four trees. open builds one at degree (a, b); slots
// sizes a persistent tree's arena, in node slots.
var trees = []struct {
	name string
	open func(a, b, slots int) tree
}{
	{"OCC-ABtree", volatile()},
	{"Elim-ABtree", volatile(core.WithElimination())},
	{"p-OCC-ABtree", durable()},
	{"p-Elim-ABtree", durable(pabtree.WithElimination())},
}

func volatile(opts ...core.Option) func(a, b, slots int) tree {
	return func(a, b, _ int) tree {
		tr := core.New(append(opts, core.WithDegree(a, b))...)
		return tree{
			thread:       func() handle { return tr.NewThread() },
			validate:     tr.Validate,
			len:          tr.Len,
			keySum:       tr.KeySum,
			scan:         tr.Scan,
			rqStats:      tr.RQStats,
			longestChain: func() int { return longestChain(tr.NewThread()) },
		}
	}
}

func durable(opts ...pabtree.Option) func(a, b, slots int) tree {
	return func(a, b, slots int) tree {
		tr := pabtree.New(pmem.New(slots*pabtree.NodeWords), append(opts, pabtree.WithDegree(a, b))...)
		return tree{
			thread: func() handle { return tr.NewThread() },
			validate: func() error {
				if err := tr.Validate(); err != nil {
					return err
				}
				return tr.ValidatePersisted()
			},
			len:          tr.Len,
			keySum:       tr.KeySum,
			scan:         tr.Scan,
			rqStats:      tr.RQStats,
			longestChain: func() int { return longestChain(tr.NewThread()) },
		}
	}
}

func longestChain[R comparable](s abalg.Store[R]) int {
	var walk func(n R) int
	walk = func(n R) int {
		if s.Kind(n) == abalg.LeafKind {
			depth := 0
			for v := s.LeafState(n).Vers.Load(); v != nil; v = v.Next() {
				depth++
			}
			return depth
		}
		longest := 0
		for i := 0; i < s.Size(n); i++ {
			longest = max(longest, walk(s.Child(n, i)))
		}
		return longest
	}
	return walk(s.Child(s.Entry(), 0))
}

// forEachTree runs body once per tree, opened at degree (a, b) with an
// arena of slots node slots for the persistent ones.
func forEachTree(t *testing.T, a, b, slots int, body func(t *testing.T, tr tree)) {
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) { body(t, tc.open(a, b, slots)) })
	}
}

// churn runs writers goroutines, each applying at most 100 000 random
// updates to keys drawn by key, until stop is set. Bounding the work
// keeps a writer from eating a full scheduler slice at every yield of
// the goroutine under test when GOMAXPROCS is 1, and bounds the slots a
// persistent tree's reclamation must keep up with.
func churn(tr tree, writers int, seed int64, key func(rng *rand.Rand) uint64) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			th := tr.thread()
			for n := 0; n < 100_000 && !done.Load(); n++ {
				if k := key(rng); rng.Intn(2) == 0 {
					th.Delete(k)
				} else {
					th.Insert(k, k)
				}
			}
		}(seed + int64(w))
	}
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// TestBatchSplitFallback forces the mid-batch leaf-full fallback: a
// batch dense enough that every leaf in its range must split while the
// batch is applying, then drained again in one batch (merging deletes).
func TestBatchSplitFallback(t *testing.T) {
	forEachTree(t, 2, 4, 1<<15, func(t *testing.T, tr tree) {
		th := tr.thread()
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
		if got, want := tr.len(), 4000; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
		if err := tr.validate(); err != nil {
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
		if got := tr.len(); got != 0 {
			t.Fatalf("Len = %d after draining batch, want 0", got)
		}
		if err := tr.validate(); err != nil {
			t.Fatalf("tree invalid after merging batch: %v", err)
		}
	})
}

// TestBatchLengthMismatchPanics pins the dict.Batcher length contract.
func TestBatchLengthMismatchPanics(t *testing.T) {
	forEachTree(t, 2, 11, 64, func(t *testing.T, tr tree) {
		th := tr.thread()
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
	forEachTree(t, 2, 4, 1<<17, func(t *testing.T, tr tree) {
		loader := tr.thread()
		for k := uint64(2); k <= keyRange; k += 2 {
			loader.Insert(k, k*7)
		}
		stop := churn(tr, 3, 100, oddKey)
		defer stop()

		th, local := tr.thread(), tr.thread()
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

// TestRangeSnapshotDifferential cross-checks concurrent RangeSnapshot
// results against a mutex-guarded reference model under insert/delete
// churn that constantly splits and merges leaves. Every model entry
// whose last transition happened before the scan began (and that was not
// touched during the scan) must appear in — or be absent from — the
// snapshot exactly as the model says, with the model's value.
func TestRangeSnapshotDifferential(t *testing.T) {
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
	forEachTree(t, 2, 4, 1<<16, func(t *testing.T, tr tree) {
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
				th := tr.thread()
				rng := rand.New(rand.NewSource(int64(w)*2654435761 + 99))
				for n := 0; n < 100_000 && !stop.Load(); n++ {
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

		th := tr.thread()
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
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
		if scans, _ := tr.rqStats(); scans == 0 {
			t.Fatal("no scans recorded")
		}
		if claims < rounds*keyRange/8 {
			t.Fatalf("model made only %d claims: scans did not overlap churn", claims)
		}
	})
}

// TestRangeSnapshotVersionsPruned checks that writers prune version
// chains once no scan needs them: after interleaved scanning and writes
// and a quiescent sweep of writes, no live leaf may retain more than the
// pruning boundary entry.
func TestRangeSnapshotVersionsPruned(t *testing.T) {
	forEachTree(t, 2, 4, 1<<12, func(t *testing.T, tr tree) {
		th := tr.thread()
		for k := uint64(1); k <= 200; k++ {
			th.Insert(k, k)
		}
		for i := 0; i < 50; i++ {
			th.RangeSnapshot(1, 200, func(k, v uint64) bool { return true })
			th.Upsert(uint64(i%200)+1, uint64(i))
		}
		if _, versions := tr.rqStats(); versions == 0 {
			t.Fatal("interleaved scans and writes created no leaf versions")
		}
		// No scan is in flight: one more write to each leaf must leave at
		// most one chained version per leaf (the pruning boundary entry).
		for k := uint64(1); k <= 200; k++ {
			th.Upsert(k, k)
		}
		if depth := tr.longestChain(); depth > 1 {
			t.Fatalf("a leaf retains %d versions with no scans active", depth)
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
	forEachTree(t, 2, 4, 1<<17, func(t *testing.T, tr tree) {
		th := tr.thread()
		for k := uint64(2); k <= keyRange; k += 2 {
			th.Insert(k, k) // stable even keys
		}
		stop := churn(tr, 1, 9, oddKey)
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
	open func() (th handle, thread func() handle)
}{
	{"core", func() (handle, func() handle) {
		tr := core.New()
		return prefill(tr.NewThread()), func() handle { return tr.NewThread() }
	}},
	{"pabtree", func() (handle, func() handle) {
		tr := pabtree.New(pmem.New(benchKeys * pabtree.NodeWords))
		return prefill(tr.NewThread()), func() handle { return tr.NewThread() }
	}},
}

func prefill(th handle) handle {
	for k := uint64(1); k <= benchKeys; k++ {
		th.Insert(k, k)
	}
	return th
}

// benchScan runs scan over rotating intervals of each length, per
// store: the scan fast path (path-cached descent, per-thread scratch,
// version pooling). allocs/op must read 0 (TestAllocsScanFastPath is
// the hard gate).
func benchScan(b *testing.B, scan func(th handle, lo, hi uint64, fn func(k, v uint64) bool)) {
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
	benchScan(b, func(th handle, lo, hi uint64, fn func(k, v uint64) bool) { th.Range(lo, hi, fn) })
}

// BenchmarkScanSnapshot measures the linearizable RangeSnapshot hot path
// (timestamp draw + versioned leaf collects).
func BenchmarkScanSnapshot(b *testing.B) {
	benchScan(b, func(th handle, lo, hi uint64, fn func(k, v uint64) bool) { th.RangeSnapshot(lo, hi, fn) })
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
func benchBatch(b *testing.B, seed int64, loop, batch func(th handle, keys, res []uint64, ok []bool)) {
	for _, st := range benchStores {
		for _, size := range []int{1, 8, 64, 512} {
			keys := make([]uint64, size)
			res := make([]uint64, size)
			ok := make([]bool, size)
			for _, v := range []struct {
				name string
				run  func(th handle, keys, res []uint64, ok []bool)
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
	benchBatch(b, 1, func(th handle, keys, _ []uint64, _ []bool) {
		for _, k := range keys {
			th.Find(k)
		}
	}, func(th handle, keys, res []uint64, ok []bool) {
		th.FindBatch(keys, res, ok)
	})
}

// BenchmarkBatchUpdate measures a delete+reinsert cycle of size uniform
// keys — the steady-state update shape (tree size constant).
func BenchmarkBatchUpdate(b *testing.B) {
	benchBatch(b, 2, func(th handle, keys, _ []uint64, _ []bool) {
		for _, k := range keys {
			th.Delete(k)
		}
		for _, k := range keys {
			th.Insert(k, k)
		}
	}, func(th handle, keys, res []uint64, ok []bool) {
		th.DeleteBatch(keys, res, ok)
		th.InsertBatch(keys, keys, res, ok)
	})
}
