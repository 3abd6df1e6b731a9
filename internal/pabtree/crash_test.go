package pabtree

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abalg"
	"repro/internal/pmem"
	"repro/internal/xrand"
)

func TestCrashEmptyTree(t *testing.T) {
	a := arena()
	New(a)
	a.Crash(0, 1)
	rt := Recover(a)
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 0 {
		t.Fatalf("recovered Len = %d", rt.Len())
	}
	// The recovered tree must be fully operational.
	th := rt.NewThread()
	th.Insert(5, 50)
	if v, ok := th.Find(5); !ok || v != 50 {
		t.Fatalf("post-recovery Find = (%d, %v)", v, ok)
	}
}

func TestCrashPreservesCompletedOps(t *testing.T) {
	for _, evict := range []float64{0, 0.5, 1} {
		t.Run(fmt.Sprintf("evict%.1f", evict), func(t *testing.T) {
			a := arena()
			tr := New(a)
			th := tr.NewThread()
			const n = 5000
			for i := uint64(1); i <= n; i++ {
				th.Insert(i, i+7)
			}
			for i := uint64(3); i <= n; i += 3 {
				th.Delete(i)
			}
			a.Crash(evict, 42)
			rt := Recover(a)
			if err := rt.Validate(); err != nil {
				t.Fatal(err)
			}
			rth := rt.NewThread()
			for i := uint64(1); i <= n; i++ {
				v, ok := rth.Find(i)
				want := i%3 != 0
				if ok != want || (ok && v != i+7) {
					t.Fatalf("key %d after recovery: (%d, %v), want present=%v", i, v, ok, want)
				}
			}
		})
	}
}

// TestCrashSameLinePair crashes a simple insert and an inserting Upsert at
// every one of their persistence events (store value, store key, flush),
// with every dirty line dropped and with every dirty line evicted to PM.
// The pair slot being filled still holds the value of a deleted pair, so
// the one-flush discipline is only correct if the key can never reach PM
// ahead of the value: recovery must find the key absent or carrying the
// new value, never the stale one.
func TestCrashSameLinePair(t *testing.T) {
	const key, stale, fresh = 7, 111, 222
	ops := []struct {
		name string
		op   func(th *Thread)
	}{
		{"insert", func(th *Thread) { th.Insert(key, fresh) }},
		{"upsert", func(th *Thread) { th.Upsert(key, fresh) }},
	}
	for _, o := range ops {
		for _, evict := range []float64{0, 1} {
			// n runs one past the op's last event, so the final round
			// crashes right after a completed op.
			for n, done := int64(1), false; !done; n++ {
				a := pmem.New(64 * NodeWords)
				tr := New(a)
				th := tr.NewThread()
				th.Insert(key, stale)
				th.Delete(key) // key word ⊥, value word still stale
				a.SetFailpoint(n)
				func() {
					defer func() {
						if r := recover(); r != nil && r != pmem.ErrCrash {
							panic(r)
						}
					}()
					o.op(th)
					done = true
				}()
				a.Crash(evict, uint64(n))
				rt := Recover(a)
				if err := rt.Validate(); err != nil {
					t.Fatalf("%s, event %d, evict %v: %v", o.name, n, evict, err)
				}
				v, ok := rt.NewThread().Find(key)
				if ok && v != fresh {
					t.Errorf("%s crashed at event %d, evict %v: key recovered with value %d, want absent or %d", o.name, n, evict, v, fresh)
				}
				if done && !ok {
					t.Errorf("%s completed before the crash (evict %v) but the key is absent", o.name, evict)
				}
				if done && n != 4 {
					t.Errorf("%s completed after %d persistence events, want 3", o.name, n-1)
				}
			}
		}
	}
}

func TestRecoverWithElimination(t *testing.T) {
	a := arena()
	tr := New(a, WithElimination())
	th := tr.NewThread()
	for i := uint64(1); i <= 1000; i++ {
		th.Insert(i, i)
	}
	a.Crash(0.3, 9)
	rt := Recover(a, WithElimination())
	if !rt.Elim() {
		t.Fatal("elimination flag lost")
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	if rt.Len() != 1000 {
		t.Fatalf("recovered Len = %d", rt.Len())
	}
}

// opRecord tracks a worker's knowledge of its own keys for the durable
// linearizability check. Keys are partitioned per worker (single writer),
// so after a crash the recovered state of key k must match either the
// last completed op on k, or the worker's single in-flight op on k.
type opRecord struct {
	present bool
	val     uint64
}

type inflight struct {
	active bool
	key    uint64
	del    bool // true: delete; false: insert
	val    uint64
}

// TestCrashDurableLinearizability is the central crash test: several
// workers update disjoint key sets; a failpoint crashes the system at an
// arbitrary interior point of some operation; the arena loses unflushed
// lines (and randomly persists some dirty ones, as real caches may); then
// recovery must produce a valid tree whose per-key contents are explained
// by a strict linearization: every completed op's effect is present, and
// the at-most-one in-flight op per worker either happened or did not.
func TestCrashDurableLinearizability(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		for _, elim := range []bool{false, true} {
			name := fmt.Sprintf("trial%d_elim%v", trial, elim)
			t.Run(name, func(t *testing.T) {
				runCrashTrial(t, uint64(trial), elim)
			})
		}
	}
}

func runCrashTrial(t *testing.T, trial uint64, elim bool) {
	const (
		workers  = 4
		keyRange = 400
		prefill  = 200
	)
	// At most ~4k persistence events precede the failpoint, so a few
	// thousand slots are ever claimed; a small arena keeps Crash (which
	// rewrites every word) cheap under the race detector.
	a := pmem.New(32 * 1024 * NodeWords)
	var opts []Option
	if elim {
		opts = append(opts, WithElimination())
	}
	tr := New(a, opts...)

	// Prefill with even keys so deletes have something to remove.
	completed := make([]map[uint64]opRecord, workers)
	for w := range completed {
		completed[w] = make(map[uint64]opRecord)
	}
	pth := tr.NewThread()
	for i := 0; i < prefill; i++ {
		k := uint64(2*i + 1) // odd keys 1..399
		pth.Insert(k, k*10)
		completed[int(k)%workers][k] = opRecord{present: true, val: k * 10}
	}

	// Arm the failpoint somewhere inside the measured phase. Each update
	// performs a handful of persistence events; 8k ops * ~2 events =
	// plenty of headroom to land mid-run.
	events := int64(50 + (trial*977)%4000)
	a.SetFailpoint(events)

	inflights := make([]inflight, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tr.NewThread()
			rng := xrand.New(trial*1000 + uint64(w))
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrash {
					panic(r)
				}
			}()
			for i := 0; i < 20000; i++ {
				// Pick one of this worker's keys.
				k := rng.Uint64n(keyRange/workers)*workers + uint64(w)
				if k == 0 {
					k = uint64(workers) * 2
				}
				if int(k)%workers != w {
					k = k - k%uint64(workers) + uint64(w)
				}
				if k == 0 || k >= keyRange {
					continue
				}
				del := rng.Uint64n(2) == 0
				val := k*1000 + uint64(i)
				inflights[w] = inflight{active: true, key: k, del: del, val: val}
				if del {
					th.Delete(k)
					completed[w][k] = opRecord{present: false}
				} else {
					_, ins := th.Insert(k, val)
					if ins {
						completed[w][k] = opRecord{present: true, val: val}
					}
					// If the key was present, the op changed nothing and
					// the completed record is already correct.
				}
				inflights[w] = inflight{}
			}
		}(w)
	}
	wg.Wait()

	if !a.FailpointTriggered() {
		t.Skip("workload finished before the failpoint fired (harmless)")
	}

	evict := float64(trial%3) / 2 // 0, 0.5, 1
	a.Crash(evict, trial*31+7)
	rt := Recover(a, opts...)
	if err := rt.Validate(); err != nil {
		t.Fatalf("recovered tree invalid: %v", err)
	}
	if err := rt.ValidatePersisted(); err != nil {
		t.Fatalf("recovered tree not fully persisted: %v", err)
	}

	rth := rt.NewThread()
	for w := 0; w < workers; w++ {
		inf := inflights[w]
		for k, rec := range completed[w] {
			v, ok := rth.Find(k)
			okExpected := rec.present
			// The worker's single in-flight op may or may not have taken
			// effect (it linearizes at the crash iff its key write was
			// persisted).
			if inf.active && inf.key == k {
				if inf.del {
					if ok && v != rec.val {
						t.Errorf("worker %d key %d: present with val %d, want %d (inflight delete)", w, k, v, rec.val)
					}
					continue // present-or-absent both legal
				}
				// Inflight insert: absent (not applied), present with the
				// inflight value (applied), or present with the completed
				// value (insert found key present — no-op).
				if ok && v != inf.val && !(rec.present && v == rec.val) {
					t.Errorf("worker %d key %d: val %d, want %d or completed state", w, k, v, inf.val)
				}
				continue
			}
			if ok != okExpected {
				t.Errorf("worker %d key %d: present=%v, want %v (last completed op lost or resurrected)", w, k, ok, okExpected)
				continue
			}
			if ok && v != rec.val {
				t.Errorf("worker %d key %d: val %d, want %d", w, k, v, rec.val)
			}
		}
	}

	// The recovered tree must also be fully operational.
	rth.Insert(999983, 1)
	if _, ok := rth.Find(999983); !ok {
		t.Fatal("recovered tree cannot insert")
	}
}

// TestCrashStorm runs many short crash/recover cycles on the same arena,
// recovering and continuing each time — the repeated-era structure of the
// strict linearizability proof (§5.1.3).
func TestCrashStorm(t *testing.T) {
	a := pmem.New(64 * 1024 * NodeWords) // <= 2.5k persistence events per era
	tr := New(a)
	model := make(map[uint64]uint64) // completed ops only (single thread)
	rng := xrand.New(1234)

	for era := 0; era < 8; era++ {
		th := tr.NewThread()
		a.SetFailpoint(int64(500 + rng.Uint64n(2000)))
		var infKey, infVal uint64
		var infDel, infActive bool
		func() {
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrash {
					panic(r)
				}
			}()
			for i := 0; i < 100000; i++ {
				k := 1 + rng.Uint64n(500)
				del := rng.Uint64n(2) == 0
				v := k + uint64(era)*1000000
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
		a.Crash(float64(era%3)/2, uint64(era)*17+3)
		tr = Recover(a)
		if err := tr.Validate(); err != nil {
			t.Fatalf("era %d: %v", era, err)
		}
		// Reconcile the in-flight op: accept whichever outcome persisted.
		if infActive {
			rth := tr.NewThread()
			v, ok := rth.Find(infKey)
			if infDel {
				if !ok {
					delete(model, infKey)
				}
				// if still present, model keeps the old value — verify below
			} else if ok && v == infVal {
				model[infKey] = infVal
			}
		}
		rth := tr.NewThread()
		for k, mv := range model {
			v, ok := rth.Find(k)
			if !ok || v != mv {
				t.Fatalf("era %d: key %d = (%d, %v), model %d", era, k, v, ok, mv)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("era %d: Len %d vs model %d", era, tr.Len(), len(model))
		}
	}
}

// TestCrashUnderHeldLock: a Thread crashes while it holds a leaf's lock,
// and a second Thread's upsert of a key in that leaf must observe the
// crash — panic with pmem.ErrCrash — instead of waiting for a release
// that never comes. The holder crashes inside a publishing window
// (OpenPublishingWindow's finish, at its first persistence event) or,
// holding the lock with no window open, at a flush. Only a failed
// TryLock polls the crash in the second case on both trees, and in the
// first on the p-OCC-ABtree, whose upsert takes the lock without a
// pre-lock read; the p-Elim-ABtree's upsert meets the open window in
// its pre-lock read and in Record first.
func TestCrashUnderHeldLock(t *testing.T) {
	const key = 7
	holds := []struct {
		name string
		hold func(tr *Tree, pub *Thread)
	}{
		{"window", func(tr *Tree, pub *Thread) {
			finish := OpenPublishingWindow(pub, key, 70, abalg.RecReplace)
			tr.arena.SetFailpoint(1)
			finish()
		}},
		{"lock", func(tr *Tree, pub *Thread) {
			leaf := abalg.Search[uint64](pub, key, 0).N
			abalg.Lock[uint64](pub, leaf)
			tr.arena.SetFailpoint(1)
			tr.arena.Flush(leafKeyOff(leaf, 0))
		}},
	}
	crash := func(fn func()) (r any) {
		defer func() { r = recover() }()
		fn()
		return nil
	}
	for _, kind := range []struct {
		name string
		opts []Option
	}{{"pOCC", nil}, {"pElim", []Option{WithElimination()}}} {
		for _, h := range holds {
			t.Run(kind.name+"/"+h.name, func(t *testing.T) {
				tr := New(pmem.New(64*NodeWords), kind.opts...)
				pub := tr.NewThread()
				for k := uint64(1); k <= 8; k++ {
					pub.Insert(k, k)
				}
				if r := crash(func() { h.hold(tr, pub) }); r != pmem.ErrCrash {
					t.Fatalf("the lock holder did not crash: recovered %v", r)
				}
				done := make(chan any, 1)
				go func() { done <- crash(func() { tr.NewThread().Upsert(key, 71) }) }()
				select {
				case r := <-done:
					if r != pmem.ErrCrash {
						t.Fatalf("upsert beside the crashed holder recovered %v, want pmem.ErrCrash", r)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("upsert beside the crashed holder still waits after 10 s")
				}
			})
		}
	}
}
