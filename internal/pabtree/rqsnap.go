package pabtree

// Range scans for the persistent trees. The cursor loop, the cached
// descent and the per-leaf double collect are internal/abalg's
// (scan.go), shared with internal/core; this file holds the public
// wrappers and the writer's half of linearizable range queries, rqStamp
// (structural replacements inherit the replaced leaves' chains by
// reference in internal/abalg). The leaf version chains are volatile
// (they hang off the vnode headers): a scan is a runtime construct, so
// snapshots need not survive a crash — Recover starts from a quiescent
// image with fresh chains.
//
// One persistence twist lives in the wrappers: node slots are recycled
// through internal/epoch, so a cached offset is only meaningful inside
// the epoch critical section it was read in. Every scan therefore runs
// inside one section and resets the cached path on entry, reusing it
// only across the hops of one call (which is where the re-descents
// were); within the section a retired slot — and with it the vnode
// holding its chain — cannot be recycled, so a stale cached node is at
// worst marked, never a different node.

import (
	"repro/internal/abalg"
	"repro/internal/rq"
)

// rqStamp preserves and stamps a leaf about to be modified in place.
// Must run inside the leaf's version window, before the first content
// mutation of that window. The preserved snapshot's node and buffer
// come from the provider's recycling pool (internal/rq).
func (t *Tree) rqStamp(off uint64) {
	c := t.rqp.ReadStamp()
	lv := t.vn(off)
	s := lv.TS.Load()
	if c == s {
		return
	}
	v := t.rqp.Acquire()
	v.Items = t.appendPairs(off, v.Items, 0, ^uint64(0))
	rq.SortPairs(v.Items)
	lv.Vers.Store(t.rqp.PushAcquired(lv.Vers.Load(), s, v, t.rqp.MinActive()))
	lv.TS.Store(c)
}

// appendPairs appends the leaf's pairs with lo <= key <= hi to items,
// unsorted; with lo == hi it stops at the match, as no key is in two
// slots. Lock-free callers validate the pass against the leaf's version.
// The range test is one unsigned compare, as in internal/core.
func (t *Tree) appendPairs(off uint64, items []rq.Pair, lo, hi uint64) []rq.Pair {
	for i := 0; i < t.b; i++ {
		if k := t.leafKey(off, i); k-lo <= hi-lo && k != emptyKey {
			items = append(items, rq.Pair{K: k, V: t.leafVal(off, i)})
			if lo == hi {
				break
			}
		}
	}
	return items
}

// scanEnter opens the epoch critical section a scan runs in and
// drops the cached path, whose offsets from prior sections are dead.
func (th *Thread) scanEnter() {
	th.enter()
	th.scratch.ResetPath()
}

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, stopping early if fn returns false. Safe under concurrency;
// per-leaf atomic (see abalg.Range). fn may run point operations on this
// Thread but must not start another scan on it: scans reuse the Thread's
// scratch buffers.
func (th *Thread) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	th.scanEnter()
	defer th.exit()
	abalg.Range(th, lo, hi, fn)
}

// RangeSnapshot is Range with the reported pairs one atomic snapshot of
// the whole interval (the query linearizes when it draws its timestamp).
// Snapshots read the current durable-linearizable state; they do not
// interact with crash simulation (no scan survives a crash).
func (th *Thread) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	th.scanEnter()
	defer th.exit()
	abalg.RangeSnapshot(th, lo, hi, fn)
}

// RangeSnapshotAt is RangeSnapshot at an externally drawn linearization
// timestamp ts (see abalg.RangeSnapshotAt): the caller must hold ts
// active on the tree's rq clock for the duration of the call. With
// several trees on one shared clock (WithRQClock), one ts across all of
// them yields a single atomic cross-tree snapshot.
func (th *Thread) RangeSnapshotAt(ts, lo, hi uint64, fn func(k, v uint64) bool) {
	th.scanEnter()
	defer th.exit()
	abalg.RangeSnapshotAt(th, ts, lo, hi, fn)
}

// RQStats reports snapshot scans taken and leaf versions preserved.
func (t *Tree) RQStats() (scans, versions uint64) { return t.rqp.Stats() }
