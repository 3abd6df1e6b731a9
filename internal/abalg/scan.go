package abalg

// Range scanning. The paper's trees do not include range queries ("could
// be added using the techniques described in [Arbel-Raviv & Brown,
// PPoPP'18]", §3); Range provides the practical middle ground that B-tree
// libraries usually ship: each leaf is read as an atomic snapshot (a
// validated double collect, like the per-key leaf search), and the scan
// hops leaf to leaf using the key-range upper bounds discovered on the
// search path. The scan as a whole is therefore not one atomic snapshot;
// keys inserted or deleted mid-scan in not-yet-visited leaves may or may
// not appear. RangeSnapshot is linearizable, on internal/rq: a global
// scan timestamp that only scans advance, a write stamp per leaf, and
// per-leaf version chains preserving pre-write states while scans that
// still need them are in flight (see the internal/rq package comment for
// the protocol and its linearizability argument). Writers stamp leaves
// inside their version windows (each store's rqStamp; structural
// replacements link the replaced leaves' chains by reference in
// rebalance.go, so a chain may hold keys beyond its leaf's range), and
// a snapshot scan resolves each leaf's state as of its timestamp in
// collect, clipped to the leaf's range.
//
// Scan fast path: hopping leaf to leaf by re-descending from the root
// makes an L-key scan cost O(L/b * log n) node visits. Instead, each
// Thread caches its latest root-to-leaf descent — the nodes on the path,
// with the key-range bounds accumulated beside them — and resumes the
// next hop from the deepest cached ancestor whose range still covers the
// cursor: usually the previous leaf's parent, making the hop O(1)
// amortized. The cache is validated, not trusted:
//
//   - Internal routing keys are immutable and a node's key range is
//     fixed at creation, so any descent through cached nodes lands on a
//     leaf whose range contains the cursor — even if part of the path
//     was unlinked along the way, its frozen routing still routes
//     correctly.
//   - What staleness CAN do is land the scan on an unlinked leaf with
//     frozen, outdated contents. Every unlink marks the node inside its
//     version window, so the per-leaf collect re-checks marked inside
//     the validated double collect and reports failure; the scan then
//     invalidates the cache and re-descends from the root (the
//     pre-cache behavior). The resume point is therefore not checked
//     itself: one that was unlinked since it was cached still routes to
//     a leaf covering the cursor, and a stale leaf is caught there.
//     (Checking it cost a seam call on every hop to save a rare
//     re-descent.)
//
// Both arguments need a cached reference to name the same node for as
// long as it is cached. The Go heap guarantees that; an arena store
// whose slots are recycled guarantees it only within one reclamation
// critical section, so it resets the path (Scratch.ResetPath) on entry
// to every scan call: within the section a retired slot cannot be
// recycled, so a stale cached node is at worst marked, never a
// different node.
//
// The collects write into per-Thread scratch buffers, and writers
// preserving pre-write states draw their Version nodes from the
// provider's recycling pool (internal/rq), so neither side allocates
// once warmed up.

import "repro/internal/rq"

// maxScanDepth bounds the cached descent. Height 32 would need > 2^31
// keys even at pathological minimum occupancy; deeper trees still scan
// correctly, they just bypass the cache.
const maxScanDepth = 32

// unbounded is the exclusive upper bound of the rightmost key ranges:
// every key is below it, since 2^64-1 is reserved.
const unbounded = ^uint64(0)

// scanLevel is one level of a cached descent: the node and the key range
// [lo, hi) its subtree covered along this path. One struct per level
// keeps a level's reads and writes inside one cache line; four parallel
// arrays were a measurable cost.
type scanLevel[R comparable] struct {
	n      R
	lo, hi uint64
}

// scanPath is a Thread's cached descent, root-to-leaf. Level 0 is the
// entry; lvl[depth-1] is the leaf.
type scanPath[R comparable] struct {
	lvl   [maxScanDepth]scanLevel[R]
	depth int // levels filled; 0 = empty
}

// resume returns the deepest cached proper ancestor of the leaf whose
// subtree covers key; 0 (the entry) when nothing better is cached.
// During a scan key is the previous leaf's upper bound, so this is
// almost always the leaf's parent.
func (p *scanPath[R]) resume(key uint64) int {
	for i := p.depth - 2; i > 0; i-- {
		if l := &p.lvl[i]; key >= l.lo && key < l.hi {
			return i
		}
	}
	return 0
}

// searchScan descends to the leaf for key, resuming from the Thread's
// cached path when possible and re-caching the path it takes. It returns
// the leaf's key-range upper bound (exclusive; unbounded for the
// rightmost leaf). A tree deeper than maxScanDepth (unreachable at sane
// degrees) stops recording and descends uncached.
func searchScan[R comparable](s Store[R], sc *Scratch[R], key uint64) (leaf R, hi uint64) {
	p := &sc.path
	if sc.NoScanCache {
		p.depth = 0
	}
	lvl := p.resume(key)
	if lvl == 0 {
		p.lvl[0] = scanLevel[R]{n: s.Entry(), hi: unbounded}
	}
	l := p.lvl[lvl]
	n, lo, hi := l.n, l.lo, l.hi
	caching := true
	for isLeaf := false; !isLeaf; {
		n, _, lo, hi, isLeaf = s.Route(n, key, lo, hi)
		if !caching {
			continue
		}
		if lvl+1 == maxScanDepth {
			caching = false
			p.depth = 0
			continue
		}
		lvl++
		p.lvl[lvl] = scanLevel[R]{n, lo, hi}
	}
	if caching {
		p.depth = lvl + 1
	}
	return n, hi
}

// latest is the timestamp of a weak (per-leaf atomic) scan: every leaf's
// current state predates it.
const latest = ^uint64(0)

// collect appends the leaf's state as of scan timestamp ts (its current
// state for latest), filtered to [lo, hi] and sorted, to buf; [lo, hi]
// must lie in the leaf's range, as the history it resolves may hold keys
// beyond it. It is the validated double collect every lock-free read of
// a leaf's pairs uses: the pass is repeated until it overlaps no version
// window. ok is false if the leaf has been unlinked (observed inside the
// validated window), in which case the caller must re-descend from the
// root: a cached path or a partition descent may have reached the leaf
// arbitrarily long after the unlink, so its frozen contents cannot be
// served, while its replacements (which inherited its version history)
// are reachable.
func collect[R comparable](s Store[R], leaf R, buf []rq.Pair, ts, lo, hi uint64) (items []rq.Pair, ok bool) {
	var before, after, stamp uint64
	var marked bool
	var chain *rq.Version
	for spins := 0; ; SpinPause(&spins) {
		items, before, after, marked, stamp, chain = s.AppendLeaf(leaf, buf, lo, hi)
		if before == after && before&1 == 0 {
			break
		}
	}
	if marked {
		return buf, false
	}
	// The collect is consistent: the leaf's version window did not
	// overlap it, so its stamp orders the leaf's latest write against the
	// scan (see internal/rq). Current state is the answer iff its stamp
	// predates the scan; otherwise resolve the chain.
	if ts != latest && stamp >= ts {
		if items, ok := rq.VisibleAt(items[:0], chain, ts, lo, hi); ok {
			return items, true
		}
		// No chain entry below ts: unreachable while the scan holds its
		// registry slot (pruning respects MinActive). Fall back to the
		// current contents.
	}
	rq.SortPairs(items)
	return items, true
}

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, stopping early if fn returns false. Safe under concurrency;
// per-leaf atomic (see the file comment). fn may run point operations on
// this Thread but must not start another scan on it: scans reuse the
// Thread's scratch buffers.
func Range[R comparable](s Store[R], lo, hi uint64, fn func(k, v uint64) bool) {
	RangeSnapshotAt(s, latest, lo, hi, fn)
}

// RangeSnapshot is Range with the reported pairs a single atomic snapshot
// of the whole interval: the query linearizes at the moment it draws its
// timestamp, before reading any leaf.
func RangeSnapshot[R comparable](s Store[R], lo, hi uint64, fn func(k, v uint64) bool) {
	sc := s.Scratch()
	if sc.scanner == nil {
		// Threads that never scan stay off the active-timestamp registry.
		sc.scanner = s.RQ().Register()
	}
	ts := sc.scanner.Begin()
	defer sc.scanner.End()
	RangeSnapshotAt(s, ts, lo, hi, fn)
}

// RangeSnapshotAt is RangeSnapshot at an externally drawn linearization
// timestamp ts: it reports the tree's state as of ts without drawing a
// timestamp of its own. The caller must hold ts active on the tree's rq
// clock (an rq.Scanner between Begin and End) for the duration of the
// call, or version chains the scan still needs could be pruned under it.
// With several trees on one shared clock, calling this on each tree with
// one ts yields a single atomic snapshot across all of them —
// internal/shard's cross-shard scan. It is the cursor loop of every scan
// (Range runs it at latest): collect the leaf holding the cursor, report
// its pairs, move the cursor to the leaf's upper bound.
func RangeSnapshotAt[R comparable](s Store[R], ts, lo, hi uint64, fn func(k, v uint64) bool) {
	// Bounds are clamped to the representable key space [1, 2^64-2]
	// (keys 0 and 2^64-1 are reserved); an empty or inverted interval
	// returns before touching the tree, with no callbacks — uniform
	// across every scan-capable structure (bench's cross-structure
	// bounds test pins this).
	if lo == 0 {
		lo = 1
	}
	if hi == ^uint64(0) {
		hi--
	}
	if hi < lo {
		return
	}
	sc := s.Scratch()
	for cursor := lo; ; {
		leaf, bound := searchScan(s, sc, cursor)
		items, ok := collect(s, leaf, sc.pairs[:0], ts, cursor, min(hi, bound-1))
		sc.pairs = items[:0]
		if !ok {
			sc.ResetPath()
			continue // leaf was unlinked: re-descend to its replacement
		}
		for _, it := range items {
			if !fn(it.K, it.V) {
				return
			}
		}
		if bound > hi {
			return
		}
		// The next leaf's range starts at this leaf's upper bound.
		cursor = bound
	}
}
