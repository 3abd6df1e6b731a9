package pabtree

import (
	"testing"

	"repro/internal/pmem"
)

// FuzzOpsWithCrash drives a persistent tree from a fuzzer-controlled byte
// stream, then crashes with fuzzer-chosen failpoint position and eviction
// probability, recovers, and checks invariants plus completed-op
// durability. Run with `go test -fuzz FuzzOpsWithCrash ./internal/pabtree`.
func FuzzOpsWithCrash(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1, 0, 0}, uint16(50), uint8(1))
	f.Add([]byte{0, 9, 9, 9, 3, 9, 1, 1, 1, 9, 0, 0}, uint16(10), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, failAt uint16, evict uint8) {
		a := pmem.New(8 * 1024 * NodeWords)
		tr := New(a)
		th := tr.NewThread()
		model := make(map[uint64]uint64)
		var infKey uint64
		a.SetFailpoint(int64(failAt%2000) + 5)
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrash {
					panic(r)
				}
			}()
			for i := 0; i+3 < len(data); i += 4 {
				op := data[i] % 3
				k := uint64(data[i+1])%64 + 1
				v := uint64(data[i+2])<<8 | uint64(data[i+3]) | 1
				infKey = k
				switch op {
				case 0:
					if _, ins := th.Insert(k, v); ins {
						model[k] = v
					}
				case 1:
					th.Delete(k)
					delete(model, k)
				case 2:
					th.Upsert(k, v)
					model[k] = v
				}
				infKey = 0
			}
		}()
		a.Crash(float64(evict%3)/2, uint64(failAt)+1)
		rt := Recover(a)
		if err := rt.Validate(); err != nil {
			t.Fatal(err)
		}
		rth := rt.NewThread()
		for k, mv := range model {
			if k == infKey {
				continue // in-flight at the crash: either outcome legal
			}
			if v, ok := rth.Find(k); !ok || v != mv {
				t.Fatalf("completed op on key %d lost: (%d,%v) want %d", k, v, ok, mv)
			}
		}
	})
}
