package core

// Range scans over the OCC-ABtree and Elim-ABtree. The cursor loop, the
// cached descent and the per-leaf double collect are internal/abalg's
// (scan.go), written once for this store and internal/pabtree's; this
// file holds the public wrappers and the writer's half of linearizable
// range queries, rqStamp, which in-place updates run inside the leaf's
// version window (structural replacements inherit the replaced leaves'
// chains by reference in internal/abalg). See the internal/rq package
// comment for the protocol and its linearizability argument.
//
// Writers preserving pre-write states draw their Version nodes and Items
// buffers from the provider's recycling pool (internal/rq), so they do
// not allocate once warmed up.

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
// unsorted, skipping empty slots and the tombstone (node.go); with lo ==
// hi it stops at the match, since outside the tombstone a key is in at
// most one slot. Lock-free callers validate the pass against l's version.
// The range test is one unsigned compare (lo <= hi): for a one-key read,
// Find's and the pre-lock phase's, it is k == lo, which almost every
// slot fails predictably; a separate k >= lo would split a leaf's slots
// at random.
func (t *Tree) appendPairs(items []rq.Pair, l *leaf, lo, hi uint64) []rq.Pair {
	tomb := t.tomb(l)
	for i := 0; i < t.b; i++ {
		if k := l.keys[i].Load(); k-lo <= hi-lo && k != emptyKey && i != tomb {
			items = append(items, rq.Pair{K: k, V: l.vals[i].Load()})
			if lo == hi {
				break
			}
		}
	}
	return items
}

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, stopping early if fn returns false. Safe under concurrency;
// per-leaf atomic (see abalg.Range). fn may run point operations on this
// Thread but must not start another scan on it: scans reuse the Thread's
// scratch buffers.
func (th *Thread) Range(lo, hi uint64, fn func(k, v uint64) bool) { abalg.Range(th, lo, hi, fn) }

// RangeSnapshot is Range with the reported pairs a single atomic snapshot
// of the whole interval: the query linearizes at the moment it draws its
// timestamp, before reading any leaf.
func (th *Thread) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	abalg.RangeSnapshot(th, lo, hi, fn)
}

// RangeSnapshotAt is RangeSnapshot at an externally drawn linearization
// timestamp ts, which the caller holds active on the tree's rq clock
// (see abalg.RangeSnapshotAt). With several trees on one shared clock
// (WithRQClock), one ts across all of them yields a single atomic
// snapshot — internal/shard's cross-shard scan.
func (th *Thread) RangeSnapshotAt(ts, lo, hi uint64, fn func(k, v uint64) bool) {
	abalg.RangeSnapshotAt(th, ts, lo, hi, fn)
}

// RQStats reports how many range-query snapshots have been taken and how
// many leaf versions writers preserved for them.
func (t *Tree) RQStats() (scans, versions uint64) { return t.rqp.Stats() }
