package abtree_test

import (
	"sync"
	"testing"

	abtree "repro"
)

func TestPublicAPIVolatile(t *testing.T) {
	for _, mk := range []struct {
		name string
		f    func() *abtree.Tree
	}{
		{"OCC", func() *abtree.Tree { return abtree.New() }},
		{"Elim", func() *abtree.Tree { return abtree.NewElim() }},
		{"OCC-degree", func() *abtree.Tree { return abtree.New(abtree.WithDegree(2, 8)) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			tr := mk.f()
			h := tr.NewHandle()
			for i := uint64(1); i <= 1000; i++ {
				h.Insert(i, i*3)
			}
			if v, ok := h.Find(500); !ok || v != 1500 {
				t.Fatalf("Find(500) = (%d, %v)", v, ok)
			}
			if tr.Len() != 1000 {
				t.Fatalf("Len = %d", tr.Len())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPublicDegreeCap: the volatile trees take b up to the paper's 11 —
// the capacity their nodes are laid out for — and reject anything
// larger; the persistent trees validate against pabtree's own limit.
func TestPublicDegreeCap(t *testing.T) {
	abtree.New(abtree.WithDegree(5, 11))
	abtree.NewPersistent(abtree.WithPersistentDegree(5, 11), abtree.WithArenaWords(1<<16))
	for _, b := range []int{12, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(WithDegree(2, %d)) did not panic", b)
				}
			}()
			abtree.New(abtree.WithDegree(2, b))
		}()
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	tr := abtree.NewElim()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			base := uint64(w) * 10000
			for i := uint64(1); i <= 5000; i++ {
				h.Insert(base+i, i)
			}
			for i := uint64(1); i <= 5000; i += 2 {
				h.Delete(base + i)
			}
		}(w)
	}
	wg.Wait()
	if got, want := tr.Len(), 8*2500; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIPersistent(t *testing.T) {
	tr := abtree.NewPersistentElim(abtree.WithArenaWords(1 << 20))
	h := tr.NewHandle()
	for i := uint64(1); i <= 2000; i++ {
		h.Insert(i, i)
	}
	flushes, fences := tr.FlushStats()
	if flushes == 0 || fences == 0 {
		t.Fatal("persistent tree issued no flushes")
	}
	tr.SimulateCrash(0, 1)
	rt := tr.Recover()
	if rt.Len() != 2000 {
		t.Fatalf("recovered Len = %d", rt.Len())
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	rh := rt.NewHandle()
	if v, ok := rh.Find(1234); !ok || v != 1234 {
		t.Fatalf("recovered Find = (%d, %v)", v, ok)
	}
}

func TestPublicAPIScanOrder(t *testing.T) {
	tr := abtree.New()
	h := tr.NewHandle()
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		h.Insert(k, k)
	}
	var got []uint64
	tr.Scan(func(k, _ uint64) { got = append(got, k) })
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan order %v, want %v", got, want)
		}
	}
	if s := tr.KeySum(); s != 25 {
		t.Fatalf("KeySum = %d", s)
	}
}

func TestPublicUpsertAndRange(t *testing.T) {
	tr := abtree.NewElim()
	h := tr.NewHandle()
	for i := uint64(1); i <= 500; i++ {
		h.Upsert(i, i)
	}
	for i := uint64(1); i <= 500; i += 2 {
		h.Upsert(i, i*10) // replace odd
	}
	var got []uint64
	h.Range(10, 15, func(k, v uint64) bool {
		got = append(got, v)
		return true
	})
	want := []uint64{10, 110, 12, 130, 14, 150}
	if len(got) != len(want) {
		t.Fatalf("Range vals = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPersistentUpsertRange(t *testing.T) {
	tr := abtree.NewPersistent(abtree.WithArenaWords(1 << 18))
	h := tr.NewHandle()
	for i := uint64(1); i <= 200; i++ {
		h.Upsert(i, i)
	}
	h.Upsert(100, 999)
	tr.SimulateCrash(0, 7)
	rt := tr.Recover()
	rh := rt.NewHandle()
	if v, ok := rh.Find(100); !ok || v != 999 {
		t.Fatalf("upsert not durable: (%d,%v)", v, ok)
	}
	n := 0
	rh.Range(50, 60, func(_, _ uint64) bool { n++; return true })
	if n != 11 {
		t.Fatalf("Range after recovery visited %d, want 11", n)
	}
}
