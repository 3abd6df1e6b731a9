package abalg_test

// The per-key operations (ops.go) are written once, so their behavioural
// tests and benchmarks are too: each test runs once per tree in the
// trees table (scanbatch_test.go) through a Thread's public operations,
// and each benchmark once per node store. validate also runs a
// persistent tree's ValidatePersisted.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
	"repro/internal/zipfian"
)

// opsSlots sizes a persistent tree's arena for these tests, in node
// slots: the largest key range below needs a few thousand live nodes,
// and epoch reclamation recycles what churn retires.
const opsSlots = 1 << 15

func TestEmptyTree(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		th := tr.thread()
		if _, ok := th.Find(1); ok {
			t.Fatal("Find on empty tree returned ok")
		}
		if _, ok := th.Delete(1); ok {
			t.Fatal("Delete on empty tree returned ok")
		}
		if tr.len() != 0 {
			t.Fatalf("Len = %d, want 0", tr.len())
		}
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertFindDelete(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		th := tr.thread()
		if old, inserted := th.Insert(10, 100); !inserted || old != 0 {
			t.Fatalf("Insert(10) = (%d, %v), want (0, true)", old, inserted)
		}
		if v, ok := th.Find(10); !ok || v != 100 {
			t.Fatalf("Find(10) = (%d, %v), want (100, true)", v, ok)
		}
		// Insert of an existing key returns the existing value, unchanged.
		if old, inserted := th.Insert(10, 999); inserted || old != 100 {
			t.Fatalf("re-Insert(10) = (%d, %v), want (100, false)", old, inserted)
		}
		if v, _ := th.Find(10); v != 100 {
			t.Fatalf("value changed by failed insert: %d", v)
		}
		if v, ok := th.Delete(10); !ok || v != 100 {
			t.Fatalf("Delete(10) = (%d, %v), want (100, true)", v, ok)
		}
		if _, ok := th.Find(10); ok {
			t.Fatal("Find after Delete returned ok")
		}
		if _, ok := th.Delete(10); ok {
			t.Fatal("second Delete returned ok")
		}
	})
}

// TestModelRandomOps cross-checks the tree against a map under a long
// random op sequence over a small key range (heavy churn, many splits
// and merges), validating structure periodically.
func TestModelRandomOps(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		th := tr.thread()
		rng := xrand.New(99)
		model := make(map[uint64]uint64)
		for i := 0; i < 60000; i++ {
			k := 1 + rng.Uint64n(800)
			mv, present := model[k]
			switch rng.Intn(3) {
			case 0:
				v := rng.Uint64()
				old, inserted := th.Insert(k, v)
				if inserted == present || (present && old != mv) {
					t.Fatalf("op %d: Insert(%d) = (%d, %v), model (%d, %v)", i, k, old, inserted, mv, present)
				}
				if !present {
					model[k] = v
				}
			case 1:
				old, deleted := th.Delete(k)
				if deleted != present || (present && old != mv) {
					t.Fatalf("op %d: Delete(%d) = (%d, %v), model (%d, %v)", i, k, old, deleted, mv, present)
				}
				delete(model, k)
			case 2:
				v, ok := th.Find(k)
				if ok != present || (present && v != mv) {
					t.Fatalf("op %d: Find(%d) = (%d, %v), model (%d, %v)", i, k, v, ok, mv, present)
				}
			}
			if i%10000 == 9999 {
				if err := tr.validate(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if tr.len() != len(model) {
			t.Fatalf("Len = %d, model has %d", tr.len(), len(model))
		}
	})
}

// stress runs 8 goroutines of half inserts, a quarter deletes and a
// quarter finds over keyRange keys (Zipf-distributed with parameter
// zipfS; 0 is uniform) for d, then applies the paper's §6 validation:
// each goroutine tracks the sum of keys it inserted minus those it
// deleted, and the grand total must equal the sum of the keys left.
func stress(t *testing.T, tr tree, d time.Duration, keyRange uint64, zipfS float64) {
	t.Helper()
	const workers = 8
	sums := make([]int64, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tr.thread()
			z := zipfian.New(xrand.New(uint64(w)*104729+7), keyRange, zipfS)
			rng := xrand.New(uint64(w)*7919 + 13)
			var sum int64
			for !stop.Load() {
				k := z.Next()
				switch rng.Uint64n(4) {
				case 0, 1:
					if _, inserted := th.Insert(k, k); inserted {
						sum += int64(k)
					}
				case 2:
					if _, deleted := th.Delete(k); deleted {
						sum -= int64(k)
					}
				default:
					th.Find(k)
				}
			}
			sums[w] = sum
		}(w)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	var total int64
	for _, s := range sums {
		total += s
	}
	if got := int64(tr.keySum()); got != total {
		t.Fatalf("key-sum validation failed: tree=%d, threads=%d", got, total)
	}
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUniform(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		stress(t, tr, 300*time.Millisecond, 10000, 0)
	})
}

func TestConcurrentZipf(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		stress(t, tr, 300*time.Millisecond, 10000, 1)
	})
}

// TestConcurrentTinyKeyRange maximizes contention: every op touches one of
// 8 keys, stressing elimination, version validation, merges down to the
// root, and height collapse.
func TestConcurrentTinyKeyRange(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		stress(t, tr, 300*time.Millisecond, 8, 0)
	})
}

func TestUpsertBasics(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		th := tr.thread()
		th.Upsert(5, 50)
		if v, ok := th.Find(5); !ok || v != 50 {
			t.Fatalf("Find = (%d,%v)", v, ok)
		}
		th.Upsert(5, 51) // replace
		if v, _ := th.Find(5); v != 51 {
			t.Fatalf("value after replace = %d", v)
		}
		if v, ok := th.Delete(5); !ok || v != 51 {
			t.Fatalf("Delete = (%d,%v)", v, ok)
		}
		th.Upsert(5, 52) // reinsert
		if v, _ := th.Find(5); v != 52 {
			t.Fatalf("value after reinsert = %d", v)
		}
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestUpsertModelMixed(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		th := tr.thread()
		rng := xrand.New(321)
		model := make(map[uint64]uint64)
		for i := 0; i < 50000; i++ {
			k := 1 + rng.Uint64n(500)
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				if _, ins := th.Insert(k, v); ins {
					model[k] = v
				}
			case 1:
				th.Delete(k)
				delete(model, k)
			case 2:
				v := rng.Uint64()
				th.Upsert(k, v)
				model[k] = v
			case 3:
				v, ok := th.Find(k)
				mv, present := model[k]
				if ok != present || (present && v != mv) {
					t.Fatalf("op %d: Find(%d) = (%d,%v), model (%d,%v)", i, k, v, ok, mv, present)
				}
			}
		}
		if tr.len() != len(model) {
			t.Fatalf("Len %d vs model %d", tr.len(), len(model))
		}
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUpsertFullLeafSplits grows a tree by upserts alone, so every split
// is an upsert's splitting insert.
func TestUpsertFullLeafSplits(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		th := tr.thread()
		for i := uint64(1); i <= 5000; i++ {
			th.Upsert(i, i)
		}
		if tr.len() != 5000 {
			t.Fatalf("Len = %d", tr.len())
		}
		for i := uint64(1); i <= 5000; i++ {
			if v, ok := th.Find(i); !ok || v != i {
				t.Fatalf("Find(%d) = (%d,%v)", i, v, ok)
			}
		}
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUpsertConcurrentLastWriterWins: 8 workers upsert 64 keys. Each
// does 5000 upserts, not internal/core's 20 000: under -race with
// GOMAXPROCS above the CPU count, the OCC trees' contended leaf locks
// stretch a 20 000-upsert tree to about 30 s.
func TestUpsertConcurrentLastWriterWins(t *testing.T) {
	forEachTree(t, 2, 11, opsSlots, func(t *testing.T, tr tree) {
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.thread()
				rng := xrand.New(uint64(w) + 900)
				for i := 0; i < 5000; i++ {
					k := 1 + rng.Uint64n(64)
					th.Upsert(k, k*1000+uint64(w))
				}
			}(w)
		}
		wg.Wait()
		// Every present value must be one some worker actually wrote for
		// that key.
		tr.scan(func(k, v uint64) {
			if v/1000 != k || v%1000 >= workers {
				t.Errorf("key %d has impossible value %d", k, v)
			}
		})
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// pointKeys returns n uniform random keys in [1, benchKeys].
func pointKeys(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(benchKeys)) + 1
	}
	return keys
}

// benchPoint runs op over uniform random keys of a prefilled tree, per
// store: the per-key paths the ledger's core.*_ns and pabtree.*_ns
// probes time, one benchmark op per key.
func benchPoint(b *testing.B, seed int64, op func(th handle, i int, k uint64)) {
	keys := pointKeys(seed, 1<<16)
	for _, st := range benchStores {
		b.Run(st.name, func(b *testing.B) {
			th, _ := st.open()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(th, i, keys[i&(len(keys)-1)])
			}
		})
	}
}

// pointSink keeps BenchmarkPointFind's results live.
var pointSink uint64

// BenchmarkPointFind measures Find: the descent and the leaf's double
// collect.
func BenchmarkPointFind(b *testing.B) {
	benchPoint(b, 3, func(th handle, _ int, k uint64) {
		v, _ := th.Find(k)
		pointSink += v
	})
}

// BenchmarkPointUpdate alternates Insert and Delete (tree size about
// constant): the descent and pre-lock phase, one locked write, and the
// occasional split or underfull repair.
func BenchmarkPointUpdate(b *testing.B) {
	benchPoint(b, 4, func(th handle, i int, k uint64) {
		if i&1 == 0 {
			th.Insert(k, k)
		} else {
			th.Delete(k)
		}
	})
}
