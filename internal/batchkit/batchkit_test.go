package batchkit

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSortStable checks both sort regimes (insertion below the radix
// cutoff, radix above) against sort.SliceStable on random data with
// duplicates.
func TestSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch []Ent
	for _, n := range []int{0, 1, 2, 17, radixCutoff, radixCutoff + 1, 300, 5000} {
		ents := make([]Ent, n)
		want := make([]Ent, n)
		for i := range ents {
			ents[i] = Ent{K: uint64(rng.Intn(50)), Idx: i} // heavy duplication
			want[i] = ents[i]
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].K < want[b].K })
		var got []Ent
		got, scratch = Sort(ents, scratch)
		if len(got) != n {
			t.Fatalf("n=%d: Sort returned %d ents", n, len(got))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: ents[%d] = %+v, want %+v (stability or order broken)", n, i, got[i], want[i])
			}
		}
	}
}

// TestSortPresorted: an already-sorted batch must come back unchanged,
// stable for equal keys.
func TestSortPresorted(t *testing.T) {
	ents := make([]Ent, 400)
	for i := range ents {
		ents[i] = Ent{K: uint64(i / 2), Idx: i} // sorted, every key duplicated
	}
	got, _ := Sort(ents, nil)
	for i := range got {
		if got[i].K != uint64(i/2) || got[i].Idx != i {
			t.Fatalf("ents[%d] = %+v: presorted input reordered", i, got[i])
		}
	}
}

// TestSortWideKeys exercises every radix pass (keys spanning all 8
// bytes).
func TestSortWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ents := make([]Ent, 1000)
	for i := range ents {
		ents[i] = Ent{K: rng.Uint64(), Idx: i}
	}
	got, _ := Sort(ents, nil)
	for i := 1; i < len(got); i++ {
		if got[i-1].K > got[i].K {
			t.Fatalf("ents[%d].K=%d > ents[%d].K=%d", i-1, got[i-1].K, i, got[i].K)
		}
	}
}

func TestRunEnd(t *testing.T) {
	ents := []Ent{{K: 5}, {K: 7}, {K: 9}, {K: 12}}
	if got := RunEnd(ents, 0, 10); got != 3 {
		t.Fatalf("RunEnd bounded = %d, want 3", got)
	}
	if got := RunEnd(ents, 0, ^uint64(0)); got != 4 {
		t.Fatalf("RunEnd unbounded = %d, want 4", got)
	}
	if got := RunEnd(ents, 3, 13); got != 4 {
		t.Fatalf("RunEnd tail = %d, want 4", got)
	}
}

// TestRunEndGallop checks the galloping search against a linear scan
// for every start and every bound over sorted keys with duplicates and
// gaps, so runs of every length from one to the whole batch are
// covered.
func TestRunEndGallop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ents := make([]Ent, 300)
	k := uint64(1)
	for i := range ents {
		k += uint64(rng.Intn(3))
		ents[i] = Ent{K: k, Idx: i}
	}
	for i := range ents {
		for bound := ents[i].K + 1; bound <= k+1; bound++ {
			want := i + 1
			for want < len(ents) && ents[want].K < bound {
				want++
			}
			if got := RunEnd(ents, i, bound); got != want {
				t.Fatalf("RunEnd(i=%d, bound=%d) = %d, want %d", i, bound, got, want)
			}
		}
	}
}
