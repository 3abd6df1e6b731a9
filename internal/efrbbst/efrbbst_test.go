package efrbbst

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/xrand"
	"repro/internal/zipfian"
)

func TestBasicOps(t *testing.T) {
	tr := New()
	if _, ok := tr.Find(1); ok {
		t.Fatal("find on empty")
	}
	if old, ins := tr.Insert(7, 70); !ins || old != 0 {
		t.Fatalf("Insert = (%d,%v)", old, ins)
	}
	if old, ins := tr.Insert(7, 99); ins || old != 70 {
		t.Fatalf("re-Insert = (%d,%v)", old, ins)
	}
	if v, ok := tr.Delete(7); !ok || v != 70 {
		t.Fatalf("Delete = (%d,%v)", v, ok)
	}
	if _, ok := tr.Delete(7); ok {
		t.Fatal("second Delete")
	}
	// Delete of the only key, then reuse.
	tr.Insert(3, 30)
	tr.Delete(3)
	tr.Insert(4, 40)
	if v, ok := tr.Find(4); !ok || v != 40 {
		t.Fatalf("Find(4) = (%d,%v)", v, ok)
	}
}

func TestModelRandomOps(t *testing.T) {
	tr := New()
	rng := xrand.New(23)
	model := make(map[uint64]uint64)
	for i := 0; i < 60000; i++ {
		k := 1 + rng.Uint64n(800)
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			old, ins := tr.Insert(k, v)
			mv, present := model[k]
			if ins == present || (present && old != mv) {
				t.Fatalf("op %d Insert(%d)", i, k)
			}
			if !present {
				model[k] = v
			}
		case 1:
			old, del := tr.Delete(k)
			mv, present := model[k]
			if del != present || (present && old != mv) {
				t.Fatalf("op %d Delete(%d)", i, k)
			}
			delete(model, k)
		case 2:
			v, ok := tr.Find(k)
			mv, present := model[k]
			if ok != present || (present && v != mv) {
				t.Fatalf("op %d Find(%d)", i, k)
			}
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len %d vs model %d", tr.Len(), len(model))
	}
}

func TestQuickSetSemantics(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := New()
		want := map[uint64]bool{}
		for _, r := range raw {
			k := uint64(r) + 1
			tr.Insert(k, k)
			want[k] = true
		}
		if tr.Len() != len(want) {
			return false
		}
		prev := uint64(0)
		ordered := true
		tr.Scan(func(k, _ uint64) {
			if k <= prev {
				ordered = false
			}
			prev = k
		})
		return ordered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func stress(t *testing.T, workers int, d time.Duration, keyRange uint64, zipfS float64) {
	tr := New()
	sums := make([]int64, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := zipfian.New(xrand.New(uint64(w)+100), keyRange, zipfS)
			rng := xrand.New(uint64(w) * 31)
			var sum int64
			for !stop.Load() {
				k := z.Next()
				if rng.Uint64n(2) == 0 {
					if _, ins := tr.Insert(k, k); ins {
						sum += int64(k)
					}
				} else {
					if _, del := tr.Delete(k); del {
						sum -= int64(k)
					}
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
	if got := int64(tr.KeySum()); got != total {
		t.Fatalf("key-sum: tree=%d threads=%d", got, total)
	}
}

func TestConcurrentUniform(t *testing.T) { stress(t, 8, 300*time.Millisecond, 5000, 0) }
func TestConcurrentZipf(t *testing.T)    { stress(t, 8, 300*time.Millisecond, 5000, 1) }
func TestConcurrentTiny(t *testing.T)    { stress(t, 8, 200*time.Millisecond, 4, 0) }

// TestLateInsertHelperCannotResurrect replays a stale helper: an insert
// whose key has since been deleted must not be re-applied by a thread
// that read its IFLAG word before the insert finished. It holds only if
// no child pointer ever takes the same value twice, i.e. if the insert
// links a fresh copy of the sibling leaf rather than the leaf itself.
func TestLateInsertHelperCannotResurrect(t *testing.T) {
	tr := New()
	tr.Insert(10, 10)

	r := tr.seek(20)
	op := newInsert(r, 20, 20)
	if !r.p.upd.CompareAndSwap(r.pupd, op.u) {
		t.Fatal("uncontended IFLAG failed")
	}
	tr.helpInsert(op)
	if _, ok := tr.Delete(20); !ok {
		t.Fatal("Delete(20) missed the key just inserted")
	}

	tr.helpInsert(op) // the late helper
	if _, ok := tr.Find(20); ok {
		t.Error("late helpInsert resurrected the deleted key 20")
	}
	if n := tr.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}
