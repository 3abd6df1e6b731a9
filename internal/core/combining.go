// Leaf-level flat combining — the alternative to publishing elimination
// the paper reports testing and rejecting (§2): "We augmented each leaf
// node with an MCS queue and used the queues to perform flat combining.
// We found that this approach was much slower than our publishing
// elimination technique, in which threads do not have to wait for a
// combiner."
//
// This file reproduces that rejected design as an ablation
// (WithLeafCombining), in the style of local combining on-demand
// [Drachsler-Cohen & Petrank, OPODIS 2014] applied per leaf: an update
// that reaches its leaf publishes an operation record in the leaf's
// publication list and then competes for the leaf's lock. The winner
// (the combiner) drains the list and applies every compatible pending
// operation inside one version window; losers spin until their record's
// status flips. Operations a combiner cannot apply locally — inserts
// into a full leaf, or any op on a leaf that got unlinked — are bounced
// back to their owner to take the classic slow path.
//
// The contrast with publishing elimination is the point of the
// ablation: here every waiter blocks on a combiner and every operation
// still writes to the leaf; elimination lets waiters return without
// writing at all.
package core

import (
	"runtime"
	"sync/atomic"
)

// fcRecord statuses.
const (
	fcPending    uint32 = iota
	fcDone              // applied; result in resVal/resOK
	fcLeafFull          // insert needs a split: owner takes the slow path
	fcLeafMarked        // leaf was unlinked: owner re-searches
)

// fcRecord is one published operation awaiting a combiner.
type fcRecord struct {
	next     *fcRecord // publication-list link, immutable after push
	key, val uint64
	isInsert bool
	resVal   uint64 // written by the combiner before status flips
	resOK    bool
	status   atomic.Uint32
}

// fcQueue is a leaf's publication list (a Treiber push list; the
// combiner detaches the whole list with one swap).
type fcQueue struct {
	head atomic.Pointer[fcRecord]
}

// combineUpdate publishes an insert/delete on leaf and waits until some
// combiner (possibly this thread) resolves it. It returns the
// operation's result and final status.
func (th *Thread) combineUpdate(leaf *node, key, val uint64, isInsert bool) (uint64, bool, uint32) {
	q := &extOf(leaf).fcq
	rec := &fcRecord{key: key, val: val, isInsert: isInsert}
	for {
		old := q.head.Load()
		rec.next = old
		if q.head.CompareAndSwap(old, rec) {
			break
		}
	}
	spins := 0
	for {
		if s := rec.status.Load(); s != fcPending {
			return rec.resVal, rec.resOK, s
		}
		if th.tryLockNode(leaf) {
			newSize := th.combine(leaf, q, rec)
			th.unlockAll()
			if newSize >= 0 && newSize < th.t.a {
				th.fixUnderfull(leaf)
			}
			// Our record was either drained by a previous combiner
			// (status already set when we got the lock) or by our own
			// combine; either way it is resolved now.
			s := rec.status.Load()
			return rec.resVal, rec.resOK, s
		}
		spins++
		if spins%32 == 0 {
			runtime.Gosched()
		}
	}
}

// combine drains leaf's publication list and applies every pending
// operation under the held lock. own is the calling thread's record
// (excluded from the combined-ops counter). It returns the leaf's final
// size if any delete was applied (so the caller can run fixUnderfull
// after unlocking), else -1.
func (th *Thread) combine(leaf *node, q *fcQueue, own *fcRecord) int {
	t := th.t
	recs := q.head.Swap(nil)
	marked := leaf.isMarked()
	size := -1
	for r := recs; r != nil; r = r.next {
		if marked {
			r.status.Store(fcLeafMarked)
			continue
		}
		if r.isInsert {
			done, old, inserted := t.insertUnsorted(leaf, r.key, r.val)
			if !done {
				r.status.Store(fcLeafFull)
				continue
			}
			r.resVal, r.resOK = old, inserted
			r.status.Store(fcDone)
		} else {
			val, found, newSize := t.deleteUnsorted(leaf, r.key)
			r.resVal, r.resOK = val, found
			r.status.Store(fcDone)
			if found {
				size = newSize
			}
		}
		if r != own {
			t.fcCombined.Add(1)
		}
	}
	return size
}
