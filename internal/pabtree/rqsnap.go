package pabtree

// Linearizable range queries for the persistent trees, mirroring
// internal/core/rqsnap.go on the same internal/rq machinery. The leaf
// version chains are volatile (they hang off the vnode headers): a scan
// is a runtime construct, so snapshots need not survive a crash —
// Recover starts from a quiescent image with fresh chains. Reclamation
// composes with the existing epoch scheme for node slots: a scan runs
// inside an epoch critical section, so a retired leaf's slot (and with
// it the vnode holding its chain) cannot be recycled under the scan.

import "repro/internal/rq"

// rqStamp preserves and stamps a leaf about to be modified in place.
// Must run inside the leaf's version window, before the first content
// mutation of that window. The preserved snapshot's node and buffer
// come from the provider's recycling pool (internal/rq).
func (t *Tree) rqStamp(off uint64) {
	c := t.rqp.ReadStamp()
	lv := t.vn(off)
	s := lv.rqTS.Load()
	if c == s {
		return
	}
	v := t.rqp.Acquire()
	v.Items = t.gatherPairs(off, v.Items)
	lv.rqVers.Store(t.rqp.PushAcquired(lv.rqVers.Load(), s, v, t.rqp.MinActive()))
	lv.rqTS.Store(c)
}

// rqTimeline returns a leaf's state history for inheritance by its
// replacements (leaf locked, not yet modified by the caller).
func (t *Tree) rqTimeline(off, c uint64) *rq.Version {
	lv := t.vn(off)
	tl := lv.rqVers.Load()
	if s := lv.rqTS.Load(); s < c {
		v := t.rqp.Acquire()
		v.Items = t.gatherPairs(off, v.Items)
		tl = t.rqp.PushAcquired(tl, s, v, t.rqp.MinActive())
	}
	return tl
}

// rqInheritSplit hands a split leaf's history to its two replacements:
// left covers keys < sep, right keys >= sep. Runs inside old's version
// window, with c the stamp read there.
func (t *Tree) rqInheritSplit(old, left, right uint64, sep, c uint64) {
	t.vn(left).rqTS.Store(c)
	t.vn(right).rqTS.Store(c)
	if tl := t.rqTimeline(old, c); tl != nil {
		t.vn(left).rqVers.Store(t.rqp.Restrict(tl, 0, sep-1))
		t.vn(right).rqVers.Store(t.rqp.Restrict(tl, sep, ^uint64(0)))
	}
}

// rqMergedTimeline combines two sibling leaves' histories for merge and
// distribute. Runs inside both leaves' version windows.
func (t *Tree) rqMergedTimeline(left, right, c uint64) *rq.Version {
	return t.rqp.MergeTimelines(t.rqTimeline(left, c), t.rqTimeline(right, c))
}

// rqInheritDistribute hands two redistributed leaves' combined history
// to their replacements, split at newSep. Runs inside both old leaves'
// version windows, with c the stamp read there.
func (t *Tree) rqInheritDistribute(oldLeft, oldRight, newLeft, newRight uint64, newSep, c uint64) {
	t.vn(newLeft).rqTS.Store(c)
	t.vn(newRight).rqTS.Store(c)
	if tl := t.rqMergedTimeline(oldLeft, oldRight, c); tl != nil {
		t.vn(newLeft).rqVers.Store(t.rqp.Restrict(tl, 0, newSep-1))
		t.vn(newRight).rqVers.Store(t.rqp.Restrict(tl, newSep, ^uint64(0)))
	}
}

// rqInheritMerge hands two merged leaves' combined history to their
// single replacement. Same window requirements as rqInheritDistribute.
func (t *Tree) rqInheritMerge(oldLeft, oldRight, nn uint64, c uint64) {
	t.vn(nn).rqTS.Store(c)
	t.vn(nn).rqVers.Store(t.rqMergedTimeline(oldLeft, oldRight, c))
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
			spinPause(&spins)
			continue
		}
		if lv.marked.Load() {
			return buf, false
		}
		s := lv.rqTS.Load()
		chain := lv.rqVers.Load()
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
			spinPause(&spins)
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
