package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// rqConfigs are the tree variants whose leaf-write paths all must feed
// the range-query version machinery.
func rqConfigs() map[string][]Option {
	return map[string][]Option{
		"occ":  {WithDegree(2, 4)},
		"elim": {WithDegree(2, 4), WithElimination()},
	}
}

func TestRangeSnapshotSequential(t *testing.T) {
	for name, opts := range rqConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts...)
			th := tr.NewThread()
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
}

// TestRangeSnapshotWriteOrderWitness checks whole-scan atomicity. One
// writer sweeps the odd "witness" keys in ascending order, writing round
// number g to each; concurrently it toggles the even "chaff" keys to
// force splits and merges through the witness leaves (degree (2,4)).
// Any atomic snapshot of the witness keys must read as a round-g prefix
// followed by a round-(g-1) suffix; a torn scan shows up as an
// out-of-order or spread-out value pattern. The plain per-leaf-atomic
// Range does not pass this under churn; RangeSnapshot must.
func TestRangeSnapshotWriteOrderWitness(t *testing.T) {
	for name, opts := range rqConfigs() {
		t.Run(name, func(t *testing.T) {
			const m = 120 // witness keys: 1, 3, 5, ..., 2m-1
			tr := New(opts...)
			init := tr.NewThread()
			for i := 0; i < m; i++ {
				init.Insert(uint64(2*i+1), 0)
			}

			var stop atomic.Bool
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				th := tr.NewThread()
				chaff := false
				for g := uint64(1); !stop.Load(); g++ {
					for i := 0; i < m; i++ {
						th.Upsert(uint64(2*i+1), g)
						if i%3 == 0 { // churn: even keys come and go
							k := uint64(2*i + 2)
							if chaff {
								th.Insert(k, k)
							} else {
								th.Delete(k)
							}
						}
					}
					chaff = !chaff
				}
			}()

			scans, rounds := 2, 400
			if testing.Short() {
				scans, rounds = 1, 100
			}
			var scanners sync.WaitGroup
			for s := 0; s < scans; s++ {
				scanners.Add(1)
				go func() {
					defer scanners.Done()
					th := tr.NewThread()
					for n := 0; n < rounds; n++ {
						var vals []uint64
						th.RangeSnapshot(1, 2*m, func(k, v uint64) bool {
							if k%2 == 1 {
								vals = append(vals, v)
							}
							return true
						})
						if len(vals) != m {
							t.Errorf("scan %d saw %d witness keys, want %d", n, len(vals), m)
							return
						}
						for i := 1; i < m; i++ {
							if vals[i] > vals[i-1] {
								t.Errorf("scan %d torn: witness %d has round %d after round %d", n, i, vals[i], vals[i-1])
								return
							}
						}
						if vals[0]-vals[m-1] > 1 {
							t.Errorf("scan %d torn: rounds spread %d..%d", n, vals[m-1], vals[0])
							return
						}
					}
				}()
			}
			scanners.Wait()
			stop.Store(true)
			writer.Wait()
		})
	}
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
	for name, opts := range rqConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(opts...)
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
					th := tr.NewThread()
					rng := xrand.New(uint64(w)*2654435761 + 99)
					for !stop.Load() {
						// Each writer owns keys ≡ w (mod writers).
						k := uint64(w) + uint64(writers)*rng.Uint64n(keyRange/writers) + 1
						v := rng.Uint64()%1000 + 1
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

			// Let the writers build up a populated, churning tree before
			// the scans start, so the model makes real claims.
			for {
				mu.Lock()
				populated := len(model) >= keyRange/4
				mu.Unlock()
				if populated {
					break
				}
				runtime.Gosched()
			}

			th := tr.NewThread()
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
				th.RangeSnapshot(1, keyRange+uint64(writers), func(k, v uint64) bool {
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
						t.Fatalf("scan %d: key %d=%d confirmed before scan, snapshot has (%d,%v)", n, k, e.val, v, in)
					}
					if !e.present && in {
						t.Fatalf("scan %d: key %d confirmed absent before scan, snapshot has %d", n, k, v)
					}
				}
				mu.Unlock()
			}
			stop.Store(true)
			wg.Wait()
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			scans, _ := tr.rqp.Stats()
			if scans == 0 {
				t.Fatal("no scans recorded")
			}
			if claims < rounds*keyRange/8 {
				t.Fatalf("model made only %d claims: scans did not overlap churn", claims)
			}
		})
	}
}
