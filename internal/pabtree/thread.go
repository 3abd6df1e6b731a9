package pabtree

import (
	"repro/internal/abalg"
	"repro/internal/epoch"
)

const maxHeld = abalg.MaxHeld

// Thread is a per-goroutine operation handle. It records the locks an
// operation holds, for UnlockAll, and owns this worker's
// epoch-reclamation handle. A Thread must not be used concurrently.
type Thread struct {
	t     *Tree
	eh    *epoch.Handle[uint32]
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

// TryLock acquires the lock of the node at off if it is free and records
// it for UnlockAll: one test-and-test-and-set of the lock word. A failed
// attempt observes an injected crash: every wait for a lock
// (abalg.Lock, lockOrElim) polls TryLock, and a holder that crashed will
// never release.
func (th *Thread) TryLock(off uint64) bool {
	if th.nheld == maxHeld {
		panic("pabtree: too many locks held")
	}
	v := th.t.vn(off)
	if v.lock.Load() != 0 || !v.lock.CompareAndSwap(0, 1) {
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
		th.held[i].lock.Store(0)
		th.held[i] = nil
	}
	th.nheld = 0
}

// enter/exit bracket every public operation with an epoch critical
// section, so retired node slots cannot be recycled under a traversal.
func (th *Thread) enter() { th.eh.Enter() }
func (th *Thread) exit()  { th.eh.Exit() }
