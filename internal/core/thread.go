package core

import "repro/internal/abalg"

const maxHeld = abalg.MaxHeld

// Thread is a per-goroutine handle through which all tree operations run.
// It records the (up to four) locks an operation holds, for UnlockAll,
// and stages its structural updates, scans and batches. A Thread must not
// be used concurrently; create one per worker goroutine with
// Tree.NewThread.
type Thread struct {
	t     *Tree
	held  [maxHeld]*node
	nheld int

	// scratch stages the structural updates, scans and batches
	// (abalg.Store, seam.go), so steady-state scans and batches allocate
	// nothing.
	scratch abalg.Scratch[*node]
}

// NewThread returns a new operation handle for t.
func (t *Tree) NewThread() *Thread { return &Thread{t: t} }

// Tree returns the tree this handle operates on.
func (th *Thread) Tree() *Tree { return th.t }

// TryLock acquires n's lock if it is free and records it for UnlockAll:
// one test-and-test-and-set of the lock word. Waiting is abalg.Lock's
// loop over it.
func (th *Thread) TryLock(n *node) bool {
	if th.nheld == maxHeld {
		panic("core: too many locks held")
	}
	if n.lock.Load() != 0 || !n.lock.CompareAndSwap(0, 1) {
		return false
	}
	th.held[th.nheld] = n
	th.nheld++
	return true
}

// UnlockAll releases every lock this thread holds, most recent first.
func (th *Thread) UnlockAll() {
	for i := th.nheld - 1; i >= 0; i-- {
		th.held[i].lock.Store(0)
		th.held[i] = nil
	}
	th.nheld = 0
}
