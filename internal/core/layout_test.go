package core

// Layout and footprint guards for the split node layouts (node.go): the
// byte budgets as compile-time constants, the live heap they buy, and a
// walk of every variant with the downcast checks on. The slot record's
// encoding is TestNodeLayout (conformance_test.go).

import (
	"flag"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// TestMain turns the downcast kind checks on for the whole test binary,
// so every suite in the package — stress, differential, fuzz seeds —
// also asserts that vals/ver are never taken of an internal node nor
// ptrs of a leaf. Benchmarks measure the unchecked accessors.
func TestMain(m *testing.M) {
	flag.Parse()
	checkDowncasts = flag.Lookup("test.bench").Value.String() == ""
	os.Exit(m.Run())
}

// The byte budgets: one leaf budget for both trees, since the Elim-ABtree
// keeps its elimination record in spare state bits. The header is exact;
// the rest are Go allocation size classes, so a field too many costs the
// next class (leaf 224 -> 240, inner 208 -> 224). A negative array length
// here fails the package's test build rather than a benchmark.
const (
	headerSize  = 112
	leafBudget  = 224
	innerBudget = 208
)

var (
	_ [headerSize - unsafe.Sizeof(node{})]byte
	_ [unsafe.Sizeof(node{}) - headerSize]byte
	_ [leafBudget - unsafe.Sizeof(leaf{})]byte
	_ [innerBudget - unsafe.Sizeof(inner{})]byte
	// The header is the first field of every allocation type: a *node is
	// a pointer to the allocation's start, which is what makes the
	// downcasts legal.
	_ [-unsafe.Offsetof(leaf{}.node)]byte
	_ [-unsafe.Offsetof(inner{}.node)]byte
)

// TestTouchWords pins the four words node.touch loads: at each offset
// both layouts hold an atomic word, so a touch of either kind of node
// reads only words that are written atomically.
func TestTouchWords(t *testing.T) {
	var l leaf
	var in inner
	lb, ib := uintptr(unsafe.Pointer(&l)), uintptr(unsafe.Pointer(&in))
	for _, w := range []struct {
		off              uintptr
		leafWord, inWord unsafe.Pointer
	}{
		{0, unsafe.Pointer(&l.lock), unsafe.Pointer(&in.lock)},
		{64, unsafe.Pointer(&l.keys[5]), unsafe.Pointer(&in.keys[5])},
		{128, unsafe.Pointer(&l.Vers), unsafe.Pointer(&in.ptrs[2])},
		{192, unsafe.Pointer(&l.vals[7]), unsafe.Pointer(&in.ptrs[10])},
	} {
		if lo, io := uintptr(w.leafWord)-lb, uintptr(w.inWord)-ib; lo != w.off || io != w.off {
			t.Errorf("touch word %d: leaf field at %d, inner field at %d", w.off, lo, io)
		}
	}
}

// TestHeapBytesPerKey pins the footprint the layouts exist for: uniform
// random inserts settle at ~69% leaf fill, so a 224 B leaf class plus
// the internal levels cost ~32 B of live heap per key (the unified
// 480 B node cost ~70). Both trees build on that one leaf: the
// Elim-ABtree's record costs it nothing.
func TestHeapBytesPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates two 200k-key trees")
	}
	const keys = 200_000
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perKey := func(opts ...Option) float64 {
		before := heap()
		tr := New(opts...)
		th := tr.NewThread()
		rng := rand.New(rand.NewSource(1))
		inserted := 0
		for inserted < keys {
			if _, ok := th.Insert(1+rng.Uint64()%(1<<40), 1); ok {
				inserted++
			}
		}
		b := float64(heap()-before) / keys
		t.Logf("elim=%v: %.1f B/key live heap, %+v", tr.Elim(), b, tr.Stats())
		runtime.KeepAlive(th)
		return b
	}
	occ, elim := perKey(), perKey(WithElimination())
	if occ > 40 {
		t.Errorf("OCC-ABtree live heap %.1f B/key, want <= 40", occ)
	}
	if elim > occ+1 {
		t.Errorf("Elim-ABtree live heap %.1f B/key, want within 1 of the OCC-ABtree's %.1f", elim, occ)
	}
}

// tombstones counts the reachable leaves carrying a tombstone (node.go).
// Quiescent trees only.
func tombstones(tr *Tree) int {
	n := 0
	var walk func(x *node)
	walk = func(x *node) {
		if x.isLeaf() {
			if tombstone(x.state.Load()) >= 0 {
				n++
			}
			return
		}
		for i := 0; i < int(x.nchildren); i++ {
			walk(x.inner().ptrs[i].Load())
		}
	}
	walk(tr.root())
	return n
}

// TestDowncastsMatchKinds builds every variant and drives the point,
// batch, scan and inspection paths through splits, merges and root
// collapses with the kind checks on. On the unified node a vals read of
// an internal node was harmless; now it is out of bounds. The Elim
// variants run the same paths over leaves that carry tombstones, and
// -race builds run checkptr over every downcast.
func TestDowncastsMatchKinds(t *testing.T) {
	if !checkDowncasts {
		t.Skip("downcast checks are off (benchmark run)")
	}
	// The hook itself must bite.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leaf() of an internal node did not panic")
			}
		}()
		New().entry.leaf()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("inner() of a leaf did not panic")
			}
		}()
		New().root().inner()
	}()

	variants := map[string][]Option{
		"OCC":     nil,
		"Elim":    {WithElimination()},
		"b4":      {WithDegree(2, 4)},
		"b11-a5":  {WithDegree(5, 11)},
		"Elim-b4": {WithElimination(), WithDegree(2, 4)},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			tr := New(opts...)
			th := tr.NewThread()
			const n = 3000
			rng := rand.New(rand.NewSource(7))
			model := map[uint64]uint64{}
			for i := 0; i < n; i++ {
				k := 1 + rng.Uint64()%n
				switch rng.Intn(4) {
				case 0:
					if _, ok := th.Insert(k, k); ok {
						model[k] = k
					}
				case 1:
					th.Upsert(k, k+1)
					model[k] = k + 1
				case 2:
					th.Delete(k)
					delete(model, k)
				default:
					v, ok := th.Find(k)
					if mv, mok := model[k]; ok != mok || v != mv {
						t.Fatalf("Find(%d) = (%d,%v), model (%d,%v)", k, v, ok, mv, mok)
					}
				}
			}
			if got := tombstones(tr); tr.Elim() != (got > 0) {
				t.Fatalf("%d leaves carry a tombstone on a tree with elim=%v", got, tr.Elim())
			}
			// Batches, then delete everything so leaves merge and the
			// tree collapses back to a root leaf.
			keys := make([]uint64, 64)
			vals := make([]uint64, 64)
			res := make([]uint64, 64)
			ok := make([]bool, 64)
			for base := uint64(1); base <= n; base += 64 {
				for i := range keys {
					keys[i] = base + uint64(i)
					vals[i] = keys[i]
				}
				th.InsertBatch(keys, vals, res, ok)
				for i, k := range keys {
					if ok[i] {
						model[k] = k
					}
				}
				th.FindBatch(keys, res, ok)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			count := 0
			tr.Scan(func(k, v uint64) {
				if model[k] != v {
					t.Fatalf("Scan pair (%d,%d), model %d", k, v, model[k])
				}
				count++
			})
			if count != len(model) || tr.Len() != len(model) {
				t.Fatalf("Scan saw %d pairs, Len %d, model %d", count, tr.Len(), len(model))
			}
			snap, weak := 0, 0
			th.RangeSnapshot(1, ^uint64(0), func(_, _ uint64) bool { snap++; return true })
			th.Range(1, ^uint64(0), func(_, _ uint64) bool { weak++; return true })
			if snap != count || weak != count {
				t.Fatalf("RangeSnapshot saw %d, Range %d, want %d", snap, weak, count)
			}
			if s := tr.Stats(); s.Keys != count || s.Height != tr.Height() {
				t.Fatalf("Stats %+v vs %d keys, height %d", s, count, tr.Height())
			}
			for base := uint64(1); base <= n+64; base += 64 {
				for i := range keys {
					keys[i] = base + uint64(i)
				}
				th.DeleteBatch(keys, res, ok)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != 0 || tr.Height() != 1 {
				t.Fatalf("after deleting everything: Len %d, Height %d", tr.Len(), tr.Height())
			}
		})
	}
}
