package pabtree

import (
	"repro/internal/abalg"
	"repro/internal/epoch"
	"repro/internal/mcslock"
)

const maxHeld = abalg.MaxHeld

// Thread is a per-goroutine operation handle. It owns the MCS queue nodes
// for held locks and this worker's epoch-reclamation handle. A Thread must
// not be used concurrently.
type Thread struct {
	t     *Tree
	eh    *epoch.Handle[uint32]
	qn    [maxHeld]mcslock.QNode
	held  [maxHeld]*vnode
	nheld int

	// scratch stages the structural updates, scans and batches
	// (abalg.Store, seam.go); its cached scan path holds offsets, valid
	// only within one epoch critical section (rqsnap.go).
	scratch abalg.Scratch[uint64]
}

// NewThread registers a new operation handle.
func (t *Tree) NewThread() *Thread {
	return &Thread{t: t, eh: t.em.Register()}
}

// Tree returns the tree this handle operates on.
func (th *Thread) Tree() *Tree { return th.t }

// Lock acquires the lock of the node at off (bottom-to-top,
// left-to-right global order). When a crash failpoint is armed the wait is
// abortable: a lock whose holder "crashed" will never be released, so
// waiters must observe the crash rather than queue behind it.
func (th *Thread) Lock(off uint64) {
	if th.nheld == maxHeld {
		panic("pabtree: too many locks held")
	}
	v := th.t.vn(off)
	qn := &th.qn[th.nheld]
	if th.t.arena.FailpointArmed() {
		spins := 0
		for !v.mcs.TryAcquire(qn) {
			th.t.crashCheck()
			abalg.SpinPause(&spins)
		}
	} else {
		v.mcs.Acquire(qn)
	}
	th.held[th.nheld] = v
	th.nheld++
}

// TryLock acquires the node's lock if it is free. A failed attempt
// observes an injected crash, like Lock's abortable wait: the caller
// polls, and the holder may never release.
func (th *Thread) TryLock(off uint64) bool {
	if th.nheld == maxHeld {
		panic("pabtree: too many locks held")
	}
	v := th.t.vn(off)
	qn := &th.qn[th.nheld]
	if !v.mcs.TryAcquire(qn) {
		th.t.crashCheck()
		return false
	}
	th.held[th.nheld] = v
	th.nheld++
	return true
}

// UnlockAll releases all held locks, most recent first.
func (th *Thread) UnlockAll() {
	for i := th.nheld - 1; i >= 0; i-- {
		th.held[i].mcs.Release(&th.qn[i])
		th.held[i] = nil
	}
	th.nheld = 0
}

// enter/exit bracket every public operation with an epoch critical
// section, so retired node slots cannot be recycled under a traversal.
func (th *Thread) enter() { th.eh.Enter() }
func (th *Thread) exit()  { th.eh.Exit() }
