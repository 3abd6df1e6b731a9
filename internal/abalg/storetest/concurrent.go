package storetest

// Concurrent bodies: the node lock's mutual exclusion, the paper's §6
// key-sum validation under mixed workloads, single-key contention, and
// readers beside heavy updates.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abalg"
	"repro/internal/core"
	"repro/internal/pabtree"
	"repro/internal/xrand"
	"repro/internal/zipfian"
)

// The node lock every wait loops over (Store.TryLock), checked on a leaf
// of each tree in four bodies:
//
//   - LockAcquireRelease: abalg.Lock takes a free lock, a second Thread's
//     TryLock is refused while it is held, and UnlockAll frees it.
//   - LockTryAcquire: TryLock takes a free lock, is refused a held one and
//     takes it again after UnlockAll.
//   - LockExcludes: goroutines that each take the leaf, through abalg.Lock
//     or a single TryLock, are never inside it together.
//   - LockTryUnderContention: single TryLock attempts beside a goroutine
//     that takes and releases the lock through abalg.Lock leave the lock
//     working and lose no update made under it.
//
// Inside the lock the concurrent bodies read a non-atomic counter, yield
// and write it back plus one, so an overlap also loses an increment; the
// yield makes them bite at GOMAXPROCS=1 too.
func LockAcquireRelease(t *testing.T, kinds ...Kind) { lockBody(t, kinds, lockAcquireRelease) }
func LockTryAcquire(t *testing.T, kinds ...Kind)     { lockBody(t, kinds, lockTryAcquire) }
func LockExcludes(t *testing.T, kinds ...Kind)       { lockBody(t, kinds, lockExcludes) }
func LockTryUnderContention(t *testing.T, kinds ...Kind) {
	lockBody(t, kinds, lockTryUnderContention)
}

type lockCheck int

const (
	lockAcquireRelease lockCheck = iota
	lockTryAcquire
	lockExcludes
	lockTryUnderContention
)

func lockBody(t *testing.T, kinds []Kind, c lockCheck) {
	ForEach(t, kinds, 2, 11, 64, func(t *testing.T, tr Tree) {
		switch th := tr.Thread().(type) {
		case *core.Thread:
			runLockCheck(t, c, th, tr.Thread)
		case *pabtree.Thread:
			runLockCheck(t, c, th, tr.Thread)
		default:
			t.Fatalf("no lock body for %T", th)
		}
	})
}

func runLockCheck[R comparable](t *testing.T, c lockCheck, s abalg.Store[R], thread func() Handle) {
	leaf := abalg.Search(s, 1, *new(R)).N
	other := thread().(abalg.Store[R])
	switch c {
	case lockAcquireRelease:
		abalg.Lock(s, leaf)
		if other.TryLock(leaf) {
			t.Fatal("TryLock succeeded while abalg.Lock held the lock")
		}
		s.UnlockAll()
		if !other.TryLock(leaf) {
			t.Fatal("the lock is held after UnlockAll")
		}
		other.UnlockAll()
	case lockTryAcquire:
		if !s.TryLock(leaf) {
			t.Fatal("TryLock of a free lock failed")
		}
		if other.TryLock(leaf) {
			t.Fatal("TryLock of a held lock succeeded")
		}
		s.UnlockAll()
		if !other.TryLock(leaf) {
			t.Fatal("TryLock after UnlockAll failed")
		}
		other.UnlockAll()
	case lockExcludes:
		lockExcludesRun(t, leaf, thread)
	case lockTryUnderContention:
		lockTryUnderContentionRun(t, leaf, s, other)
	}
	if !s.TryLock(leaf) {
		t.Fatal("the lock is held after every Thread released it")
	}
	s.UnlockAll()
}

func lockExcludesRun[R comparable](t *testing.T, leaf R, thread func() Handle) {
	const goroutines, iters = 8, 5000
	counter := 0 // not atomic: only the lock orders its updates
	var inside, overlaps, entries atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := thread().(abalg.Store[R])
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					abalg.Lock(th, leaf)
				} else if !th.TryLock(leaf) {
					continue
				}
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				c := counter
				runtime.Gosched()
				counter = c + 1
				entries.Add(1)
				inside.Add(-1)
				th.UnlockAll()
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d of %d entries found another Thread inside the lock", n, entries.Load())
	}
	if int64(counter) != entries.Load() {
		t.Errorf("counter = %d after %d entries: increments were lost", counter, entries.Load())
	}
}

func lockTryUnderContentionRun[R comparable](t *testing.T, leaf R, s, other abalg.Store[R]) {
	const attempts = 20000
	counter := 0 // not atomic: only the lock orders its updates
	var stop atomic.Bool
	var taken atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			abalg.Lock(other, leaf)
			c := counter
			runtime.Gosched()
			counter = c + 1
			taken.Add(1)
			other.UnlockAll()
			runtime.Gosched()
		}
	}()
	acquired := 0
	for i := 0; i < attempts; i++ {
		if s.TryLock(leaf) {
			acquired++
			c := counter
			runtime.Gosched()
			counter = c + 1
			s.UnlockAll()
		}
		runtime.Gosched()
	}
	stop.Store(true)
	<-done
	if want := int64(acquired) + taken.Load(); int64(counter) != want {
		t.Errorf("counter = %d after %d entries: increments were lost", counter, want)
	}
	t.Logf("TryLock succeeded %d of %d times beside %d abalg.Lock entries", acquired, attempts, taken.Load())
}

// stress runs workers goroutines over keyRange keys (Zipf-distributed
// with parameter zipfS; 0 is uniform) for d: updatePct percent of their
// ops are updates, half of them inserts, and the rest are finds. Beside
// them finders goroutines only find. Every value written is its key, so
// a find that returns another value fails the test. It then applies the
// paper's §6 validation: each goroutine tracks the sum of keys it
// inserted minus those it deleted, and the grand total must equal the
// sum of the keys left.
func stress(t *testing.T, tr Tree, workers, finders int, d time.Duration, keyRange uint64, zipfS float64, updatePct int) {
	t.Helper()
	sums := make([]int64, workers+finders)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers+finders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := tr.Thread()
			rng := xrand.New(uint64(w)*7919 + 13)
			z := zipfian.New(xrand.New(uint64(w)*104729+7), keyRange, zipfS)
			pct := updatePct
			if w >= workers {
				pct = 0
			}
			var sum int64
			for !stop.Load() {
				k := z.Next()
				switch r := int(rng.Uint64n(100)); {
				case r < pct/2:
					if _, inserted := th.Insert(k, k); inserted {
						sum += int64(k)
					}
				case r < pct:
					if _, deleted := th.Delete(k); deleted {
						sum -= int64(k)
					}
				default:
					if v, ok := th.Find(k); ok && v != k {
						t.Errorf("Find(%d) = %d, want the key", k, v)
						return
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
		t.Fatalf("key-sum validation failed: tree=%d, threads=%d", got, total)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ConcurrentUniform, ConcurrentZipf and ConcurrentTinyKeyRange run 8
// updating goroutines and 2 finding ones.
func ConcurrentUniform(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		stress(t, tr, 8, 2, 300*time.Millisecond, 10000, 0, 100)
	})
}

func ConcurrentZipf(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		stress(t, tr, 8, 2, 300*time.Millisecond, 10000, 1, 100)
	})
}

// ConcurrentTinyKeyRange maximizes contention: every op touches one of
// 8 keys, stressing elimination, version validation, merges down to the
// root, and height collapse.
func ConcurrentTinyKeyRange(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		stress(t, tr, 8, 2, 300*time.Millisecond, 8, 0, 100)
	})
}

// ConcurrentMixed runs 6 goroutines that each mix finds with updates.
func ConcurrentMixed(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		stress(t, tr, 6, 0, 300*time.Millisecond, 2000, 0.5, 50)
	})
}

// ConcurrentSingleKey hammers a single key from all threads. On an Elim
// tree this exercises publishing elimination intensively: most ops
// should be eliminated or see the other op's record.
func ConcurrentSingleKey(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, 1024, func(t *testing.T, tr Tree) {
		const workers = 8
		var wg sync.WaitGroup
		sums := make([]int64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.Thread()
				var sum int64
				for i := 0; i < 30000; i++ {
					if w%2 == 0 {
						if _, inserted := th.Insert(42, uint64(w)); inserted {
							sum += 42
						}
					} else {
						if _, deleted := th.Delete(42); deleted {
							sum -= 42
						}
					}
				}
				sums[w] = sum
			}(w)
		}
		wg.Wait()
		var total int64
		for _, s := range sums {
			total += s
		}
		if got := int64(tr.KeySum()); got != total {
			t.Fatalf("key-sum mismatch: tree=%d threads=%d", got, total)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// FindDuringHeavyUpdates checks that finds return plausible values and
// terminate while the tree churns underneath them: keys 1..100 are
// permanently present and keys 101..200 churn, all with value == key.
func FindDuringHeavyUpdates(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th0 := tr.Thread()
		for i := uint64(1); i <= 100; i++ {
			th0.Insert(i, i)
		}
		stop := Churn(tr, 4, 0, 1, func(rng *rand.Rand) uint64 { return 101 + uint64(rng.Intn(100)) })
		reader := tr.Thread()
		rng := xrand.New(0xabc)
		for i := 0; i < 200000; i++ {
			k := 1 + rng.Uint64n(200)
			v, ok := reader.Find(k)
			if k <= 100 && (!ok || v != k) {
				t.Errorf("stable key %d: Find = (%d, %v)", k, v, ok)
				break
			}
			if ok && v != k {
				t.Errorf("key %d has foreign value %d", k, v)
				break
			}
		}
		stop()
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// RangeUnderConcurrentUpdates: a weak Range over keys that are always
// present reports each of them, in order, while writers churn other
// keys.
func RangeUnderConcurrentUpdates(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		th0 := tr.Thread()
		// Stable keys 1..1000 (always present); churn keys 2000..3000.
		for i := uint64(1); i <= 1000; i++ {
			th0.Insert(i, i)
		}
		stop := Churn(tr, 4, 0, 42, func(rng *rand.Rand) uint64 { return 2000 + uint64(rng.Intn(1000)) })
		defer stop()
		reader := tr.Thread()
		deadline := time.Now().Add(300 * time.Millisecond)
		for time.Now().Before(deadline) {
			seen := 0
			prev := uint64(0)
			reader.Range(1, 1000, func(k, v uint64) bool {
				if k <= prev || v != k {
					t.Errorf("range anomaly: key %d val %d after %d", k, v, prev)
					return false
				}
				prev = k
				seen++
				return true
			})
			if seen != 1000 {
				t.Fatalf("stable range returned %d keys, want 1000", seen)
			}
		}
	})
}

// EliminationObservable: under single-key contention on an Elim tree,
// concurrent insert/delete pairs on one key all complete and the tree
// stays valid. Eliminations are not observable through the public
// operations; TestPublishingEliminationDeterministic counts them.
func EliminationObservable(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, 1024, func(t *testing.T, tr Tree) {
		const workers = 8
		var completed atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.Thread()
				<-start
				for i := 0; i < 20000; i++ {
					if w%2 == 0 {
						th.Insert(7, 1)
					} else {
						th.Delete(7)
					}
					completed.Add(1)
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if completed.Load() != workers*20000 {
			t.Fatal("not all operations completed")
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// UpsertConcurrentLastWriterWins: 8 workers each upsert random keys of
// 64, 20 000 times; every value left must be one some worker wrote for
// that key. Every OCC upsert takes its contended leaf through Lock's
// try-lock loop, so the body's run time also watches the lock
// discipline: a queue lock convoys here once GOMAXPROCS exceeds the CPU
// count, because a descheduled waiter stalls every waiter queued behind
// it (an MCS lock took 5.7–43 s on the OCC tree at GOMAXPROCS=8 on 2
// CPUs, the try-lock loop 0.03–0.10 s).
func UpsertConcurrentLastWriterWins(t *testing.T, kinds ...Kind) {
	ForEach(t, kinds, 2, 11, opsSlots, func(t *testing.T, tr Tree) {
		const workers, upserts = 8, 20000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := tr.Thread()
				rng := xrand.New(uint64(w) + 900)
				for i := 0; i < upserts; i++ {
					k := 1 + rng.Uint64n(64)
					th.Upsert(k, k*1000+uint64(w))
				}
			}(w)
		}
		wg.Wait()
		tr.Scan(func(k, v uint64) {
			if v/1000 != k || v%1000 >= workers {
				t.Errorf("key %d has impossible value %d", k, v)
			}
		})
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
