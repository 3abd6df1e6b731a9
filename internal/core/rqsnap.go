package core

// Linearizable range queries (RangeSnapshot) over the OCC-ABtree and
// Elim-ABtree, built on internal/rq: a global scan timestamp that only
// scans advance, a write stamp per leaf, and per-leaf version chains
// preserving pre-write states while scans that still need them are in
// flight. See the internal/rq package comment for the protocol and its
// linearizability argument. Writers call rqStamp (in-place updates)
// inside the leaf's version window — structural replacements inherit
// the replaced leaves' chains in internal/abalg — and scans resolve each
// leaf with collectVersioned.
//
// Steady-state allocation: snapshot scans descend through the Thread's
// cached path and collect into the Thread's scratch buffer (range.go),
// and writers preserving pre-write states draw their Version nodes and
// Items buffers from the provider's recycling pool (internal/rq), so
// neither side allocates once warmed up.

import (
	"repro/internal/abalg"
	"repro/internal/rq"
)

// rqStamp preserves and stamps a leaf about to be modified in place. It
// must run inside the leaf's version window (version odd, lock held),
// before the first content mutation. On the scan-free fast path — no
// scan began since the leaf's last write — it is one shared-timestamp
// load, one leaf-local load and a compare.
func (t *Tree) rqStamp(leaf *leaf) {
	c := t.rqp.ReadStamp()
	s := leaf.TS.Load()
	if c == s {
		return
	}
	// A scan with timestamp in (s, c] may still need the pre-write
	// contents: preserve them, stamped with the state's own stamp. The
	// snapshot's node and buffer come from the provider's pool, refilled
	// by the pruning this push performs.
	v := t.rqp.Acquire()
	v.Items = gatherPairs(t, leaf, v.Items)
	leaf.Vers.Store(t.rqp.PushAcquired(leaf.Vers.Load(), s, v, t.rqp.MinActive()))
	leaf.TS.Store(c)
}

// gatherPairs appends a locked leaf's pairs to items, sorted by key.
func gatherPairs(t *Tree, l *leaf, items []rq.Pair) []rq.Pair {
	items = t.appendPairs(items, l, 1, ^uint64(0))
	rq.SortPairs(items)
	return items
}

// appendPairs appends leaf l's pairs with lo <= key <= hi to items,
// unsorted, skipping empty slots and the tombstone (node.go). Lock-free
// callers validate the pass against l's version.
func (t *Tree) appendPairs(items []rq.Pair, l *leaf, lo, hi uint64) []rq.Pair {
	tomb := t.tomb(l)
	for i := 0; i < t.b; i++ {
		if k := l.keys[i].Load(); k != emptyKey && k >= lo && k <= hi && i != tomb {
			items = append(items, rq.Pair{K: k, V: l.vals[i].Load()})
		}
	}
	return items
}

// scanner returns this thread's scan registration, created on first use
// so threads that never scan stay off the active-timestamp registry.
func (th *Thread) scanner() *rq.Scanner {
	if th.rqs == nil {
		th.rqs = th.t.rqp.Register()
	}
	return th.rqs
}

// RangeSnapshot calls fn for each pair with lo <= key <= hi in ascending
// key order, stopping early if fn returns false. Unlike Range, the
// reported pairs are a single atomic snapshot of the whole interval: the
// query linearizes at the moment it draws its timestamp, before reading
// any leaf. Safe to call concurrently with updates. fn may run point
// operations on this Thread but must not start another scan on it:
// scans reuse the Thread's scratch buffers.
func (th *Thread) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	sc := th.scanner()
	ts := sc.Begin()
	defer sc.End()
	th.RangeSnapshotAt(ts, lo, hi, fn)
}

// RangeSnapshotAt is RangeSnapshot at an externally drawn linearization
// timestamp ts: it reports the tree's state as of ts without drawing a
// timestamp of its own. The caller must hold ts active on the tree's rq
// clock (an rq.Scanner between Begin and End) for the duration of the
// call, or version chains the scan still needs could be pruned under
// it. With several trees on one shared clock (WithRQClock), calling
// this on each tree with one ts yields a single atomic snapshot across
// all of them — internal/shard's cross-shard scan.
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
	t := th.t
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
// filtered to [lo, hi] and sorted, to buf. ok is false if the leaf has
// been unlinked, in which case the caller must re-descend: the
// replacement nodes (which inherited this leaf's history) are the ones
// reachable from the root.
func (t *Tree) collectVersioned(buf []rq.Pair, n *node, ts, lo, hi uint64) (items []rq.Pair, ok bool) {
	l := n.leaf()
	spins := 0
	for {
		v1 := l.ver.Load()
		if v1&1 == 1 {
			abalg.SpinPause(&spins)
			continue
		}
		if l.isMarked() {
			return buf, false
		}
		s := l.TS.Load()
		chain := l.Vers.Load()
		items = t.appendPairs(buf, l, lo, hi)
		if l.ver.Load() != v1 {
			buf = items[:0]
			abalg.SpinPause(&spins)
			continue
		}
		// The collect is consistent: the leaf's version window did not
		// overlap it, so s orders the leaf's latest write against the
		// scan (see internal/rq). Current state is the answer iff its
		// stamp predates the scan; otherwise resolve the chain.
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
			// No chain entry below ts: unreachable while the scan holds
			// its registry slot (pruning respects MinActive). Fall back
			// to the current contents.
		}
		rq.SortPairs(items)
		return items, true
	}
}

// RQStats reports how many range-query snapshots have been taken and how
// many leaf versions writers preserved for them.
func (t *Tree) RQStats() (scans, versions uint64) { return t.rqp.Stats() }
