package pabtree

// Linearizable range queries for the persistent trees, mirroring
// internal/core/rqsnap.go on the same internal/rq machinery (structural
// replacements inherit the replaced leaves' chains in internal/abalg). The leaf
// version chains are volatile (they hang off the vnode headers): a scan
// is a runtime construct, so snapshots need not survive a crash —
// Recover starts from a quiescent image with fresh chains. Reclamation
// composes with the existing epoch scheme for node slots: a scan runs
// inside an epoch critical section, so a retired leaf's slot (and with
// it the vnode holding its chain) cannot be recycled under the scan.

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
	v.Items = t.gatherPairs(off, v.Items)
	lv.Vers.Store(t.rqp.PushAcquired(lv.Vers.Load(), s, v, t.rqp.MinActive()))
	lv.TS.Store(c)
}

// gatherPairs appends a locked leaf's pairs from the arena to items,
// sorted by key.
func (t *Tree) gatherPairs(off uint64, items []rq.Pair) []rq.Pair {
	for i := 0; i < t.b; i++ {
		if k := t.leafKey(off, i); k != emptyKey {
			items = append(items, rq.Pair{K: k, V: t.leafVal(off, i)})
		}
	}
	rq.SortPairs(items)
	return items
}

// scanner returns this thread's scan registration, created on first use.
func (th *Thread) scanner() *rq.Scanner {
	if th.rqs == nil {
		th.rqs = th.t.rqp.Register()
	}
	return th.rqs
}

// RangeSnapshot calls fn for each pair with lo <= key <= hi in ascending
// key order, stopping early if fn returns false. The reported pairs are
// one atomic snapshot of the whole interval (the query linearizes when
// it draws its timestamp). Safe under concurrency. Snapshots read the
// current durable-linearizable state; they do not interact with crash
// simulation (no scan survives a crash). fn may run point operations on
// this Thread but must not start another scan on it: scans reuse the
// Thread's scratch buffers.
func (th *Thread) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	sc := th.scanner()
	ts := sc.Begin()
	defer sc.End()
	th.RangeSnapshotAt(ts, lo, hi, fn)
}

// RangeSnapshotAt is RangeSnapshot at an externally drawn linearization
// timestamp ts (see core.Thread.RangeSnapshotAt): the caller must hold
// ts active on the tree's rq clock for the duration of the call. With
// several trees on one shared clock (WithRQClock), one ts across all of
// them yields a single atomic cross-tree snapshot.
func (th *Thread) RangeSnapshotAt(ts, lo, hi uint64, fn func(k, v uint64) bool) {
	// Same bounds discipline as Range: clamp to [1, 2^64-2], return on
	// an empty interval with no callbacks, never panic.
	if lo == emptyKey {
		lo = 1
	}
	if hi == ^uint64(0) {
		hi--
	}
	if hi < lo {
		return
	}
	th.enter()
	defer th.exit()
	t := th.t
	th.path.invalidate() // cached offsets from prior epoch sections are dead
	cursor := lo
	for {
		leaf, bound, hasBound := th.searchScan(cursor)
		items, ok := t.collectVersioned(th.pairBuf[:0], leaf, ts, cursor, hi)
		th.pairBuf = items[:0]
		if !ok {
			th.path.invalidate()
			continue // leaf was unlinked: re-descend to its replacement
		}
		for _, it := range items {
			if !fn(it.K, it.V) {
				return
			}
		}
		if !hasBound || bound > hi {
			return
		}
		cursor = bound
	}
}

// collectVersioned appends the leaf's state as of scan timestamp ts,
// filtered to [lo, hi] and sorted, to buf; ok is false if the leaf has
// been unlinked (caller re-descends).
func (t *Tree) collectVersioned(buf []rq.Pair, off, ts, lo, hi uint64) (items []rq.Pair, ok bool) {
	lv := t.vn(off)
	spins := 0
	for {
		v1 := lv.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			abalg.SpinPause(&spins)
			continue
		}
		if lv.marked.Load() {
			return buf, false
		}
		s := lv.TS.Load()
		chain := lv.Vers.Load()
		items = buf
		for i := 0; i < t.b; i++ {
			k := t.leafKey(off, i)
			if k != emptyKey && k >= lo && k <= hi {
				items = append(items, rq.Pair{K: k, V: t.leafVal(off, i)})
			}
		}
		if lv.ver.Load() != v1 {
			buf = items[:0]
			t.crashCheck()
			abalg.SpinPause(&spins)
			continue
		}
		if s >= ts {
			if v := rq.VisibleAt(chain, ts); v != nil {
				items = items[:0]
				for _, it := range v.Items {
					if it.K >= lo && it.K <= hi {
						items = append(items, it)
					}
				}
				return items, true
			}
		}
		rq.SortPairs(items)
		return items, true
	}
}

// RQStats reports snapshot scans taken and leaf versions preserved.
func (t *Tree) RQStats() (scans, versions uint64) { return t.rqp.Stats() }
