// Package mcslock implements the Mellor-Crummey–Scott queue lock used to
// protect every node in the OCC-ABtree and Elim-ABtree.
//
// MCS locks were chosen by the paper (§3.1, §7) over test-and-set spinlocks
// because waiters join a queue and spin on a bit local to their own queue
// node, so the lock scales across NUMA nodes: releasing the lock writes to
// exactly one waiter's cache line instead of invalidating every spinner.
//
// A thread may hold several MCS locks at once (an update locks up to four
// tree nodes), and each held lock needs its own queue node, so callers pass
// an explicit *QNode to Lock/TryLock/Unlock. The tree code keeps a small
// per-thread pool of QNodes (see core.Thread and pabtree.Thread).
package mcslock

import (
	"runtime"
	"sync/atomic"
)

// QNode is one waiter's entry in a lock's queue. A QNode may be reused for
// a different lock acquisition after Unlock returns, but must not be shared
// by two in-flight acquisitions.
type QNode struct {
	next   atomic.Pointer[QNode]
	locked atomic.Bool
	// Pad to a cache line so two threads' queue nodes never false-share.
	_ [64 - 8 - 1]byte
}

// Lock is an MCS queue lock. The zero value is an unlocked lock.
type Lock struct {
	tail atomic.Pointer[QNode]
}

// spinThenYield spins briefly, then yields the processor so that a
// preempted lock holder can run. Pure busy-waiting can livelock when there
// are more goroutines than GOMAXPROCS.
func spinThenYield(spins *int) {
	*spins++
	if *spins%64 == 0 {
		runtime.Gosched()
	}
}

// Acquire blocks until the calling thread holds l, enqueueing qn.
func (l *Lock) Acquire(qn *QNode) {
	qn.next.Store(nil)
	pred := l.tail.Swap(qn)
	if pred == nil {
		return // Lock was free; we are the holder.
	}
	qn.locked.Store(true)
	pred.next.Store(qn)
	spins := 0
	for qn.locked.Load() {
		spinThenYield(&spins)
	}
}

// TryAcquire acquires l if it is free, without waiting. It reports whether
// the lock was acquired. On success the caller must eventually call Release
// with the same qn.
func (l *Lock) TryAcquire(qn *QNode) bool {
	qn.next.Store(nil)
	return l.tail.CompareAndSwap(nil, qn)
}

// Release unlocks l, which the caller must hold via qn.
func (l *Lock) Release(qn *QNode) {
	next := qn.next.Load()
	if next == nil {
		// No known successor. If the tail is still us, the queue is empty.
		if l.tail.CompareAndSwap(qn, nil) {
			return
		}
		// A successor is in the middle of enqueueing; wait for its link.
		spins := 0
		for {
			if next = qn.next.Load(); next != nil {
				break
			}
			spinThenYield(&spins)
		}
	}
	next.locked.Store(false)
}

// Locked reports whether the lock is currently held or contended. It is a
// racy snapshot intended for stats and assertions only.
func (l *Lock) Locked() bool {
	return l.tail.Load() != nil
}
