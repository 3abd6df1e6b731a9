package pabtree

import (
	"testing"
	"testing/quick"

	"repro/internal/pmem"
	"repro/internal/xrand"
)

// TestQuickCrashRecovery is a property test over (op seed, failpoint,
// eviction probability): for any single-threaded op sequence interrupted
// at any persistence event, with any subset of dirty lines surviving,
// recovery yields a structurally valid tree whose contents equal the
// completed prefix of the sequence modulo the single in-flight op.
func TestQuickCrashRecovery(t *testing.T) {
	f := func(seed uint16, failAfter uint16, evictChoice uint8) bool {
		a := pmem.New(32 * 1024 * NodeWords)
		tr := New(a)
		th := tr.NewThread()
		rng := xrand.New(uint64(seed))
		model := make(map[uint64]uint64)

		a.SetFailpoint(int64(failAfter%5000) + 10)
		var infKey, infVal uint64
		var infDel, infActive bool
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrash {
					panic(r)
				}
			}()
			for i := 0; i < 30000; i++ {
				k := 1 + rng.Uint64n(300)
				v := k + uint64(i)<<24
				del := rng.Uint64n(2) == 0
				infKey, infVal, infDel, infActive = k, v, del, true
				if del {
					th.Delete(k)
					delete(model, k)
				} else {
					if _, ins := th.Insert(k, v); ins {
						model[k] = v
					}
				}
				infActive = false
			}
		}()

		a.Crash(float64(evictChoice%3)/2, uint64(seed)*7+1)
		rt := Recover(a)
		if rt.Validate() != nil {
			return false
		}
		rth := rt.NewThread()
		for k, mv := range model {
			if infActive && k == infKey {
				continue
			}
			v, ok := rth.Find(k)
			if !ok || v != mv {
				return false
			}
		}
		// The in-flight op is the only allowed difference.
		extra := rt.Len() - len(model)
		if infActive {
			got, ok := rth.Find(infKey)
			_, inModel := model[infKey]
			switch {
			case infDel:
				// Applied: key absent (extra may be -1 if it was in model);
				// not applied: matches model.
				if ok && inModel && got != model[infKey] {
					return false
				}
			default:
				if ok && got != infVal && (!inModel || got != model[infKey]) {
					return false
				}
			}
			if extra < -1 || extra > 1 {
				return false
			}
		} else if extra != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
