package core

import (
	"repro/internal/abalg"
	"repro/internal/mcslock"
)

const maxHeld = abalg.MaxHeld

// Thread is a per-goroutine handle through which all tree operations run.
// It owns the MCS queue nodes for the (up to four) locks an operation may
// hold, so lock acquisition allocates nothing. A Thread must not be used
// concurrently; create one per worker goroutine with Tree.NewThread.
type Thread struct {
	t     *Tree
	qn    [maxHeld]mcslock.QNode
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

// Lock acquires n's lock, blocking, and records it for UnlockAll.
// Locks must be taken bottom-to-top, ties broken left-to-right, to
// preserve the paper's deadlock-freedom argument (§3.3.5).
func (th *Thread) Lock(n *node) {
	if th.nheld == maxHeld {
		panic("core: too many locks held")
	}
	n.mcs.Acquire(&th.qn[th.nheld])
	th.held[th.nheld] = n
	th.nheld++
}

// TryLock acquires n's lock if it is free, like Lock.
func (th *Thread) TryLock(n *node) bool {
	if th.nheld == maxHeld {
		panic("core: too many locks held")
	}
	if !n.mcs.TryAcquire(&th.qn[th.nheld]) {
		return false
	}
	th.held[th.nheld] = n
	th.nheld++
	return true
}

// UnlockAll releases every lock this thread holds, most recent first.
func (th *Thread) UnlockAll() {
	for i := th.nheld - 1; i >= 0; i-- {
		th.held[i].mcs.Release(&th.qn[i])
		th.held[i] = nil
	}
	th.nheld = 0
}
