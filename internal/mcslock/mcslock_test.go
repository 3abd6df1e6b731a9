package mcslock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAcquireReleaseUncontended(t *testing.T) {
	var l Lock
	var qn QNode
	l.Acquire(&qn)
	if !l.Locked() {
		t.Fatal("lock should appear held after Acquire")
	}
	l.Release(&qn)
	if l.Locked() {
		t.Fatal("lock should appear free after Release")
	}
}

func TestTryAcquire(t *testing.T) {
	var l Lock
	var a, b QNode
	if !l.TryAcquire(&a) {
		t.Fatal("TryAcquire on free lock must succeed")
	}
	if l.TryAcquire(&b) {
		t.Fatal("TryAcquire on held lock must fail")
	}
	l.Release(&a)
	if !l.TryAcquire(&b) {
		t.Fatal("TryAcquire after Release must succeed")
	}
	l.Release(&b)
}

// TestMutualExclusionMCS hammers a lock from many goroutines and checks
// that a plain (non-atomic) counter is never corrupted, which only holds
// if the lock provides mutual exclusion and release/acquire ordering.
func TestMutualExclusionMCS(t *testing.T) {
	const (
		goroutines = 8
		iters      = 20000
	)
	var l Lock
	var counter int64 // deliberately non-atomic; protected by l
	var inside atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var qn QNode
			for i := 0; i < iters; i++ {
				l.Acquire(&qn)
				if n := inside.Add(1); n != 1 {
					t.Errorf("%d goroutines inside critical section", n)
				}
				counter++
				inside.Add(-1)
				l.Release(&qn)
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}

// TestFIFOHandoff checks the queue property: with two waiters enqueued in a
// known order behind a holder, the first waiter gets the lock first.
func TestFIFOHandoff(t *testing.T) {
	var l Lock
	var holder, w1, w2 QNode
	l.Acquire(&holder)

	order := make(chan int, 2)
	ready := make(chan struct{}, 2)
	go func() {
		ready <- struct{}{}
		l.Acquire(&w1)
		order <- 1
		l.Release(&w1)
	}()
	<-ready
	// Wait until w1 is actually enqueued (tail != holder).
	for l.tail.Load() == &holder {
		runtime.Gosched()
	}
	go func() {
		ready <- struct{}{}
		l.Acquire(&w2)
		order <- 2
		l.Release(&w2)
	}()
	<-ready
	for l.tail.Load() == &w1 {
		runtime.Gosched()
	}

	l.Release(&holder)
	if first := <-order; first != 1 {
		t.Fatalf("waiter %d acquired first, want waiter 1 (FIFO)", first)
	}
	<-order
}

func TestTryAcquireUnderContention(t *testing.T) {
	var l Lock
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var qn QNode
		for !stop.Load() {
			l.Acquire(&qn)
			l.Release(&qn)
		}
	}()
	// TryAcquire must never deadlock or corrupt the queue even when racing
	// with Acquire/Release.
	var qn QNode
	acquired := 0
	for i := 0; i < 50000; i++ {
		if l.TryAcquire(&qn) {
			acquired++
			l.Release(&qn)
		}
	}
	stop.Store(true)
	wg.Wait()
	// Finally the lock must still be operational.
	l.Acquire(&qn)
	l.Release(&qn)
	t.Logf("TryAcquire succeeded %d/50000 times under contention", acquired)
}

func BenchmarkMCSUncontended(b *testing.B) {
	var l Lock
	var qn QNode
	for i := 0; i < b.N; i++ {
		l.Acquire(&qn)
		l.Release(&qn)
	}
}

func BenchmarkMCSContended(b *testing.B) {
	var l Lock
	b.RunParallel(func(pb *testing.PB) {
		var qn QNode
		for pb.Next() {
			l.Acquire(&qn)
			l.Release(&qn)
		}
	})
}
