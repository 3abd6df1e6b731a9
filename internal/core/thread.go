package core

import (
	"repro/internal/abalg"
	"repro/internal/mcslock"
	"repro/internal/rq"
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
	// rqs is this thread's scan registration, nil until the first
	// RangeSnapshot (rqsnap.go).
	rqs *rq.Scanner

	// Scan fast path (range.go): the cached root-to-leaf descent and the
	// scratch buffer per-leaf collects append into, so steady-state
	// scans neither re-descend from the root per leaf nor allocate.
	// noScanCache forces full re-descents (differential tests only).
	path        scanPath
	pairBuf     []rq.Pair
	noScanCache bool

	// scratch stages the structural updates (abalg.Store, seam.go).
	scratch abalg.Scratch[*node]

	// batchBuf stages batched point operations sorted by key; batchTmp
	// is the radix sort's ping-pong partner (batch.go). Both persist so
	// steady-state FindBatch/InsertBatch/DeleteBatch allocate nothing.
	batchBuf []batchEnt
	batchTmp []batchEnt
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

// tryLockNode attempts to acquire n's lock without waiting.
func (th *Thread) tryLockNode(n *node) bool {
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
