package storetest

// Sequential bodies of the per-key operations (abalg/ops.go) and the
// inspection walks: each checks a tree against a model or a known
// picture, then validates it.

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func EmptyTree(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		if _, ok := th.Find(1); ok {
			t.Fatal("Find on empty tree returned ok")
		}
		if _, ok := th.Delete(1); ok {
			t.Fatal("Delete on empty tree returned ok")
		}
		if tr.Len() != 0 {
			t.Fatalf("Len = %d, want 0", tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func InsertFindDelete(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
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

func ReservedKeysPanic(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, 64, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		for _, k := range []uint64{0, ^uint64(0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Insert(%d) did not panic", k)
					}
				}()
				th.Insert(k, 1)
			}()
		}
	})
}

// SequentialBulk fills a tree, deletes the odd keys, then the rest: the
// tree must collapse back to a single empty leaf, and (persistent trees)
// every durable field must be persisted at each quiescent point.
func SequentialBulk(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		const n = 10000
		for i := uint64(1); i <= n; i++ {
			if _, inserted := th.Insert(i, i*2); !inserted {
				t.Fatalf("Insert(%d) failed", i)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after inserts: %v", err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for i := uint64(1); i <= n; i++ {
			if v, ok := th.Find(i); !ok || v != i*2 {
				t.Fatalf("Find(%d) = (%d, %v)", i, v, ok)
			}
		}
		// Delete odd keys.
		for i := uint64(1); i <= n; i += 2 {
			if v, ok := th.Delete(i); !ok || v != i*2 {
				t.Fatalf("Delete(%d) = (%d, %v)", i, v, ok)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after deletes: %v", err)
		}
		if tr.Len() != n/2 {
			t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
		}
		for i := uint64(1); i <= n; i++ {
			v, ok := th.Find(i)
			if want := i%2 == 0; ok != want || (ok && v != i*2) {
				t.Fatalf("Find(%d) = (%d, %v), want present=%v", i, v, ok, want)
			}
		}
		// Delete the rest; tree must collapse back to a single empty leaf.
		for i := uint64(2); i <= n; i += 2 {
			th.Delete(i)
		}
		if tr.Len() != 0 {
			t.Fatalf("Len = %d after deleting everything", tr.Len())
		}
		if h := tr.Height(); h != 1 {
			t.Fatalf("Height = %d after deleting everything, want 1", h)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func DescendingInserts(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		const n = 5000
		for i := uint64(n); i >= 1; i-- {
			th.Insert(i, i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d", tr.Len())
		}
	})
}

func ScanOrdered(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		rng := xrand.New(5)
		keys := make(map[uint64]uint64)
		for len(keys) < 3000 {
			k := 1 + rng.Uint64n(1<<40)
			keys[k] = k * 3
			th.Insert(k, k*3)
		}
		var prev uint64
		count := 0
		tr.Scan(func(k, v uint64) {
			if k <= prev {
				t.Fatalf("scan out of order: %d after %d", k, prev)
			}
			if want := keys[k]; v != want {
				t.Fatalf("Scan(%d) value %d, want %d", k, v, want)
			}
			prev = k
			count++
		})
		if count != len(keys) {
			t.Fatalf("scanned %d keys, want %d", count, len(keys))
		}
	})
}

// ModelRandomOps cross-checks the tree against a map under a long
// random op sequence over a small key range (heavy churn, many splits
// and merges), validating structure periodically.
func ModelRandomOps(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
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
				if err := tr.Validate(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
		}
	})
}

// DegreeOptions fills and thins a tree of kind k at each degree.
func DegreeOptions(t *testing.T, k Kind) {
	for _, d := range []struct{ a, b int }{{2, 4}, {2, 8}, {3, 8}, {4, 11}, {2, 11}} {
		t.Run(fmt.Sprintf("a%d_b%d", d.a, d.b), func(t *testing.T) {
			tr := k.Open(d.a, d.b, 4096)
			th := tr.Thread()
			for i := uint64(1); i <= 2000; i++ {
				th.Insert(i, i)
			}
			for i := uint64(1); i <= 2000; i += 3 {
				th.Delete(i)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// QuickDegreeVariants runs random op sequences against trees of kind
// at several degrees.
func QuickDegreeVariants(t *testing.T, kind Kind) {
	f := func(seed uint16, cfg uint8) bool {
		degrees := [][2]int{{2, 4}, {2, 8}, {3, 8}, {2, 11}}
		d := degrees[int(cfg)%len(degrees)]
		tr := kind.Open(d[0], d[1], 4096)
		th := tr.Thread()
		rng := xrand.New(uint64(seed) + 77)
		model := make(map[uint64]uint64)
		for i := 0; i < 8000; i++ {
			k := 1 + rng.Uint64n(250)
			if rng.Uint64n(2) == 0 {
				if _, ins := th.Insert(k, k); ins {
					model[k] = k
				}
			} else {
				th.Delete(k)
				delete(model, k)
			}
		}
		return tr.Validate() == nil && tr.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// InvalidDegreePanics: opening a tree of kind k at a degree outside
// 2 <= a <= b/2, 4 <= b <= abalg.MaxCap panics.
func InvalidDegreePanics(t *testing.T, k Kind) {
	for _, d := range []struct{ a, b int }{{1, 8}, {5, 8}, {2, 3}, {2, 12}, {2, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at degree (%d,%d) did not panic", k.Name, d.a, d.b)
				}
			}()
			k.Open(d.a, d.b, 64)
		}()
	}
}

// HeightLogarithmic fills a tree of kind k with sequential keys.
func HeightLogarithmic(t *testing.T, k Kind) {
	tr := k.Open(2, 11, 1<<16)
	th := tr.Thread()
	const n = 100000
	for i := uint64(1); i <= n; i++ {
		th.Insert(i, i)
	}
	// With b=11 and a=2, height should be far below log2(n); allow a
	// generous bound of log_2(n) (relaxed trees are not strictly
	// height-bounded, but sequential fills behave like B-trees).
	if h := tr.Height(); h > 17 {
		t.Fatalf("Height = %d for %d sequential inserts", h, n)
	}
	st := tr.Shape()
	if st.Keys != n {
		t.Fatalf("Stats.Keys = %d", st.Keys)
	}
	if st.Tagged != 0 {
		t.Fatalf("tagged nodes at quiescence: %d", st.Tagged)
	}
}

func KeySum(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		var want uint64
		for i := uint64(1); i <= 500; i++ {
			th.Insert(i*7, i)
			want += i * 7
		}
		th.Delete(7)
		want -= 7
		if got := tr.KeySum(); got != want {
			t.Fatalf("KeySum = %d, want %d", got, want)
		}
	})
}

// UpsertBasics: an upsert inserts, replaces, and reinserts after a
// delete; then upserts alone grow the tree, which stays valid (and
// persisted).
func UpsertBasics(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
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
		for i := uint64(1); i <= 3000; i++ {
			th.Upsert(i, i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func UpsertModelMixed(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
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
		if tr.Len() != len(model) {
			t.Fatalf("Len %d vs model %d", tr.Len(), len(model))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// UpsertFullLeafSplits grows a tree by upserts alone, so every split is
// an upsert's splitting insert.
func UpsertFullLeafSplits(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		for i := uint64(1); i <= 5000; i++ {
			th.Upsert(i, i)
		}
		if tr.Len() != 5000 {
			t.Fatalf("Len = %d", tr.Len())
		}
		for i := uint64(1); i <= 5000; i++ {
			if v, ok := th.Find(i); !ok || v != i {
				t.Fatalf("Find(%d) = (%d,%v)", i, v, ok)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// RangeBasic: a weak Range reports exactly the keys in its closed
// interval, in order, and stops when fn returns false.
func RangeBasic(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		for i := uint64(1); i <= 2000; i++ {
			th.Insert(i*3, i)
		}
		var got []uint64
		th.Range(30, 90, func(k, v uint64) bool {
			if v != k/3 {
				t.Fatalf("Range pair (%d, %d), want value %d", k, v, k/3)
			}
			got = append(got, k)
			return true
		})
		want := []uint64{30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 78, 81, 84, 87, 90}
		if len(got) != len(want) {
			t.Fatalf("Range returned %d keys, want %d: %v", len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Range[%d] = %d, want %d", i, got[i], want[i])
			}
		}
		// Early stop.
		n := 0
		th.Range(1, 6000, func(_, _ uint64) bool { n++; return n < 10 })
		if n != 10 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}

// RangeQuick checks Range over random intervals against a model.
func RangeQuick(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		rng := xrand.New(555)
		model := make(map[uint64]uint64)
		for i := 0; i < 4000; i++ {
			k := 1 + rng.Uint64n(5000)
			th.Insert(k, k*2)
			model[k] = k * 2
		}
		f := func(a, b uint16) bool {
			lo, hi := uint64(a), uint64(b)
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo == 0 {
				lo = 1
			}
			var got []uint64
			th.Range(lo, hi, func(k, v uint64) bool {
				if model[k] != v {
					return false
				}
				got = append(got, k)
				return true
			})
			count := 0
			for k := range model {
				if k >= lo && k <= hi {
					count++
				}
			}
			if len(got) != count {
				return false
			}
			for i := 1; i < len(got); i++ {
				if got[i] <= got[i-1] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

func RangeEarlyStop(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		for i := uint64(1); i <= 100; i++ {
			th.Insert(i, i)
		}
		n := 0
		th.Range(1, 100, func(k, v uint64) bool {
			n++
			return n < 5
		})
		if n != 5 {
			t.Fatalf("early stop visited %d, want 5", n)
		}
	})
}

// RangeSnapshotSequential: a quiescent RangeSnapshot reports exactly the
// keys in its interval, stops early, and reports nothing for an empty
// or inverted interval.
func RangeSnapshotSequential(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 4, opsSlots, func(t *testing.T, tr Tree) {
		th := tr.Thread()
		for k := uint64(1); k <= 300; k++ {
			th.Insert(k, k*10)
		}
		var got []uint64
		th.RangeSnapshot(50, 120, func(k, v uint64) bool {
			if v != k*10 {
				t.Fatalf("key %d: value %d, want %d", k, v, k*10)
			}
			got = append(got, k)
			return true
		})
		if len(got) != 71 {
			t.Fatalf("got %d keys, want 71", len(got))
		}
		for i, k := range got {
			if k != 50+uint64(i) {
				t.Fatalf("position %d: key %d, want %d", i, k, 50+uint64(i))
			}
		}
		// Early stop.
		n := 0
		th.RangeSnapshot(1, 300, func(k, v uint64) bool { n++; return n < 5 })
		if n != 5 {
			t.Fatalf("early stop visited %d keys, want 5", n)
		}
		// Empty and inverted intervals.
		th.RangeSnapshot(1000, 2000, func(k, v uint64) bool { t.Fatal("unexpected pair"); return true })
		th.RangeSnapshot(20, 10, func(k, v uint64) bool { t.Fatal("unexpected pair"); return true })
	})
}

// QuickOpSequences drives trees with generated op sequences via
// testing/quick and checks them against a model map plus the structural
// invariants. Each generated case is an arbitrary interleaving of
// inserts, deletes and finds over a small key space (to force splits,
// merges and root collapses).
func QuickOpSequences(t *testing.T, kinds ...Kind) {
	type op struct {
		Kind uint8
		Key  uint16
		Val  uint32
	}
	for _, kind := range kinds {
		f := func(ops []op) bool {
			tr := kind.Open(2, 11, 4096)
			th := tr.Thread()
			model := make(map[uint64]uint64)
			for _, o := range ops {
				k := uint64(o.Key)%512 + 1
				v := uint64(o.Val)
				switch o.Kind % 3 {
				case 0:
					old, inserted := th.Insert(k, v)
					mv, present := model[k]
					if inserted == present || (present && old != mv) {
						return false
					}
					if !present {
						model[k] = v
					}
				case 1:
					old, deleted := th.Delete(k)
					mv, present := model[k]
					if deleted != present || (present && old != mv) {
						return false
					}
					delete(model, k)
				case 2:
					got, ok := th.Find(k)
					mv, present := model[k]
					if ok != present || (present && got != mv) {
						return false
					}
				}
			}
			if tr.Len() != len(model) {
				return false
			}
			return tr.Validate() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", kind.Name, err)
		}
	}
}

// QuickSetSemantics: inserting a set of distinct keys then scanning
// must return exactly that set in sorted order, for any key set and any
// insertion order.
func QuickSetSemantics(t *testing.T, kind Kind) {
	f := func(raw []uint32) bool {
		tr := kind.Open(2, 11, 4096)
		th := tr.Thread()
		want := make(map[uint64]bool)
		for _, r := range raw {
			k := uint64(r) + 1
			th.Insert(k, k)
			want[k] = true
		}
		got := make(map[uint64]bool)
		prev := uint64(0)
		sorted := true
		tr.Scan(func(k, v uint64) {
			if k <= prev {
				sorted = false
			}
			prev = k
			got[k] = true
		})
		if !sorted || len(got) != len(want) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// QuickInsertDeleteInverse: for any key set, inserting all keys and
// deleting them again returns a tree of any of kinds to empty with
// height 1.
func QuickInsertDeleteInverse(t *testing.T, kinds ...Kind) {
	f := func(raw []uint16, pick uint8) bool {
		tr := kinds[int(pick)%len(kinds)].Open(2, 11, 4096)
		th := tr.Thread()
		for _, r := range raw {
			th.Insert(uint64(r)+1, 1)
		}
		for _, r := range raw {
			th.Delete(uint64(r) + 1)
		}
		return tr.Len() == 0 && tr.Height() == 1 && tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzOps drives trees of each kind at degree (2,4) — small b, more
// structural churn — from a fuzzer-controlled byte stream: each 4-byte
// group encodes (op, key, value). The model map is the oracle for every
// return value; structural invariants are checked at the end. The seed
// corpus runs as a regular test.
func FuzzOps(f *testing.F, kinds ...Kind) {
	f.Add([]byte{0, 1, 2, 3, 1, 1, 0, 0, 2, 1, 0, 0})
	f.Add([]byte{0, 5, 1, 9, 3, 5, 2, 2, 1, 5, 0, 0, 0, 5, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range kinds {
			tr := kind.Open(2, 4, 1024)
			th := tr.Thread()
			model := make(map[uint64]uint64)
			for i := 0; i+3 < len(data); i += 4 {
				op := data[i] % 4
				k := uint64(data[i+1])%64 + 1
				v := uint64(data[i+2])<<8 | uint64(data[i+3])
				mv, present := model[k]
				switch op {
				case 0:
					old, ins := th.Insert(k, v)
					if ins == present || (present && old != mv) {
						t.Fatalf("%s op %d: Insert(%d) = (%d, %v), model (%d, %v)", kind.Name, i, k, old, ins, mv, present)
					}
					if !present {
						model[k] = v
					}
				case 1:
					old, del := th.Delete(k)
					if del != present || (present && old != mv) {
						t.Fatalf("%s op %d: Delete(%d) = (%d, %v), model (%d, %v)", kind.Name, i, k, old, del, mv, present)
					}
					delete(model, k)
				case 2:
					got, ok := th.Find(k)
					if ok != present || (present && got != mv) {
						t.Fatalf("%s op %d: Find(%d) = (%d, %v), model (%d, %v)", kind.Name, i, k, got, ok, mv, present)
					}
				case 3:
					th.Upsert(k, v)
					model[k] = v
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("%s: Len %d vs model %d", kind.Name, tr.Len(), len(model))
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", kind.Name, err)
			}
		}
	})
}

// FuzzBatchOps drives trees of each kind at degree (2,4) with batches
// from a fuzzer-controlled byte stream: a header byte picks the
// operation (header mod 3) and the batch length (1-16), and the bytes
// after it are the batch's keys, drawn from 64 so that batches repeat
// keys. A model map, applied key by key in input order, is the oracle
// for every per-key result; at the end every key's Find must agree with
// it and the tree must be valid. The seed corpus runs as a regular test.
func FuzzBatchOps(f *testing.F, kinds ...Kind) {
	f.Add([]byte{3*7 + 0, 1, 2, 3, 4, 5, 6, 7, 8, 3*3 + 2, 1, 9, 4, 4, 3*4 + 1, 2, 2, 8, 60, 7})
	f.Add([]byte{3*15 + 0, 9, 1, 40, 17, 33, 2, 63, 9, 5, 21, 12, 48, 27, 30, 9, 1, 3*15 + 1, 40, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range kinds {
			tr := kind.Open(2, 4, 1024)
			th := tr.Thread()
			model := make(map[uint64]uint64)
			for i := 0; i < len(data); {
				op, n := data[i]%3, int(data[i]/3)%16+1
				i++
				var keys, vals []uint64
				for ; n > 0 && i < len(data); n, i = n-1, i+1 {
					k := uint64(data[i])%64 + 1
					keys = append(keys, k)
					vals = append(vals, k<<16|uint64(i))
				}
				res, ok := make([]uint64, len(keys)), make([]bool, len(keys))
				switch op {
				case 0:
					th.InsertBatch(keys, vals, res, ok)
				case 1:
					th.DeleteBatch(keys, res, ok)
				default:
					th.FindBatch(keys, res, ok)
				}
				for j, k := range keys {
					mv, present := model[k]
					want := present
					switch op {
					case 0:
						want = !present
						if !present {
							model[k] = vals[j]
						}
					case 1:
						delete(model, k)
					}
					if ok[j] != want || (present && res[j] != mv) {
						t.Fatalf("%s byte %d: op %d key %d (#%d of %v) = (%d, %v), model (%d, %v)",
							kind.Name, i, op, k, j, keys, res[j], ok[j], mv, want)
					}
				}
			}
			for k := uint64(1); k <= 64; k++ {
				mv, present := model[k]
				if v, ok := th.Find(k); ok != present || v != mv {
					t.Fatalf("%s: Find(%d) = (%d, %v), model (%d, %v)", kind.Name, k, v, ok, mv, present)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s: %v", kind.Name, err)
			}
		}
	})
}
