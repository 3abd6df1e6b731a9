package abalg_test

// The per-key operations (ops.go) are written once, so their tests and
// benchmarks are too. Each behavioural test is a one-line wrapper that
// runs its internal/abalg/storetest body on all four trees; each
// benchmark runs once per node store.

import (
	"math/rand"
	"testing"

	"repro/internal/abalg/storetest"
)

// a4b11 is the four trees pinned at degree (4,11). internal/core and
// internal/pabtree run the point-op, stress, upsert and snapshot
// differential bodies at the degree each body asks for, (2,11) or (2,4);
// here the same bodies run at (4,11), where a > 2 raises the underfull
// threshold that triggers a merge, so the two runs cover different
// rebalancing regimes instead of repeating one.
var a4b11 = func() []storetest.Kind {
	kinds := make([]storetest.Kind, len(storetest.All))
	for i, k := range storetest.All {
		kinds[i] = k.Degree(4, 11)
	}
	return kinds
}()

func TestEmptyTree(t *testing.T)         { storetest.EmptyTree(t, a4b11...) }
func TestInsertFindDelete(t *testing.T)  { storetest.InsertFindDelete(t, a4b11...) }
func TestModelRandomOps(t *testing.T)    { storetest.ModelRandomOps(t, a4b11...) }
func TestConcurrentUniform(t *testing.T) { storetest.ConcurrentUniform(t, a4b11...) }
func TestConcurrentZipf(t *testing.T)    { storetest.ConcurrentZipf(t, a4b11...) }
func TestUpsertBasics(t *testing.T)      { storetest.UpsertBasics(t, a4b11...) }
func TestUpsertModelMixed(t *testing.T)  { storetest.UpsertModelMixed(t, a4b11...) }
func TestUpsertFullLeafSplits(t *testing.T) {
	storetest.UpsertFullLeafSplits(t, a4b11...)
}
func TestConcurrentTinyKeyRange(t *testing.T) {
	storetest.ConcurrentTinyKeyRange(t, a4b11...)
}

func TestUpsertConcurrentLastWriterWins(t *testing.T) {
	storetest.UpsertConcurrentLastWriterWins(t, a4b11...)
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
func benchPoint(b *testing.B, seed int64, op func(th storetest.Handle, i int, k uint64)) {
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
	benchPoint(b, 3, func(th storetest.Handle, _ int, k uint64) {
		v, _ := th.Find(k)
		pointSink += v
	})
}

// BenchmarkPointUpdate alternates Insert and Delete (tree size about
// constant): the descent and pre-lock phase, one locked write, and the
// occasional split or underfull repair.
func BenchmarkPointUpdate(b *testing.B) {
	benchPoint(b, 4, func(th storetest.Handle, i int, k uint64) {
		if i&1 == 0 {
			th.Insert(k, k)
		} else {
			th.Delete(k)
		}
	})
}
