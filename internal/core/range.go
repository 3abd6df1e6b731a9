package core

// Range scanning. The paper's trees do not include range queries ("could
// be added using the techniques described in [Arbel-Raviv & Brown,
// PPoPP'18]", §3); this implementation provides the practical middle
// ground that B-tree libraries usually ship: each leaf is read as an
// atomic snapshot (double-collect, like leafSearch), and the scan hops
// leaf to leaf using the key-range upper bounds discovered on the search
// path. The scan as a whole is therefore not one atomic snapshot; keys
// inserted or deleted mid-scan in not-yet-visited leaves may or may not
// appear.
//
// Scan fast path: hopping leaf to leaf by re-descending from the root
// makes an L-key scan cost O(L/b * log n) node visits. Instead, each
// Thread caches its latest root-to-leaf descent — the nodes on the
// path, with the key-range bounds accumulated beside them — and resumes
// the next hop from the deepest cached ancestor whose range still
// covers the cursor: usually the previous leaf's parent, making the hop
// O(1) amortized. The cache is validated, not trusted:
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
//     pre-cache behavior). The resume point itself is also skipped when
//     marked, popping toward the root.
//
// The collects write into per-Thread scratch buffers, so a warmed-up
// scan allocates nothing regardless of length.

import (
	"repro/internal/abalg"
	"repro/internal/rq"
)

// maxScanDepth bounds the cached descent. Height 32 would need > 2^31
// keys even at pathological minimum occupancy; deeper trees still scan
// correctly, they just bypass the cache.
const maxScanDepth = 32

// scanLevel is one level of a cached descent: the node and the key
// range [lo, hi) its subtree covered along this path (hasHi false means
// unbounded above — the rightmost spine). One struct per level keeps a
// level's reads and writes inside one cache line; the batched point
// operations (batch.go) made the previous four-parallel-arrays layout a
// measurable cost.
type scanLevel struct {
	n     *node
	lo    uint64
	hi    uint64
	hasHi bool
}

// scanPath is a Thread's cached descent, root-to-leaf. Level 0 is the
// entry sentinel; lvl[depth-1] is the leaf.
type scanPath struct {
	lvl   [maxScanDepth]scanLevel
	depth int // levels filled; 0 = empty
}

// invalidate empties the cache: the next hop descends from the root.
func (p *scanPath) invalidate() { p.depth = 0 }

// resumeLevel returns the deepest cached proper ancestor of the leaf
// whose subtree still covers key and which has not been unlinked; 0
// (the entry) when nothing better is cached. During a scan key is the
// previous leaf's upper bound, so this is almost always the leaf's
// parent.
func (p *scanPath) resumeLevel(key uint64) int {
	for i := p.depth - 2; i > 0; i-- {
		l := &p.lvl[i]
		if key >= l.lo && (!l.hasHi || key < l.hi) && !l.n.isMarked() {
			return i
		}
	}
	return 0
}

// searchScan descends to the leaf for key, resuming from the Thread's
// cached path when possible and re-caching the path it takes. It
// reports the leaf's key-range upper bound (the smallest routing key
// greater than the path taken); hasBound is false for the rightmost
// leaf.
func (th *Thread) searchScan(key uint64) (leaf *node, bound uint64, hasBound bool) {
	p := &th.path
	if th.noScanCache {
		p.invalidate()
	}
	lvl := 0
	if p.depth > 0 {
		lvl = p.resumeLevel(key)
	}
	if lvl == 0 {
		p.lvl[0] = scanLevel{n: th.t.entry}
	}
	return th.t.descendPath(p, lvl, key)
}

// descendPath finishes a descent from the cached level lvl, recording
// the levels it visits. A tree deeper than maxScanDepth (unreachable
// at sane degrees) stops recording and descends uncached.
func (t *Tree) descendPath(p *scanPath, lvl int, key uint64) (leaf *node, bound uint64, hasBound bool) {
	n := p.lvl[lvl].n
	lo := p.lvl[lvl].lo
	bound, hasBound = p.lvl[lvl].hi, p.lvl[lvl].hasHi
	caching := true
	for !n.isLeaf() {
		nIdx := 0
		rk := n.routingKeys()
		for nIdx < rk {
			rkey := n.keys[nIdx].Load()
			if key < rkey {
				bound, hasBound = rkey, true
				break
			}
			lo = rkey
			nIdx++
		}
		n = n.inner().ptrs[nIdx].Load()
		if !caching {
			continue
		}
		if lvl+1 == maxScanDepth {
			caching = false
			p.invalidate()
			continue
		}
		lvl++
		p.lvl[lvl] = scanLevel{n: n, lo: lo, hi: bound, hasHi: hasBound}
	}
	if caching {
		p.depth = lvl + 1
	}
	return n, bound, hasBound
}

// snapshotLeaf appends a consistent copy of the leaf's pairs within
// [lo, hi], sorted, to buf. ok is false if the leaf has been unlinked
// (observed inside the validated collect window), in which case the
// caller must re-descend from the root: a cached path may have led here
// arbitrarily long after the unlink, so the frozen contents cannot be
// served.
func (t *Tree) snapshotLeaf(buf []rq.Pair, n *node, lo, hi uint64) (items []rq.Pair, ok bool) {
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
		items = t.appendPairs(buf, l, lo, hi)
		if l.ver.Load() == v1 {
			rq.SortPairs(items)
			return items, true
		}
		buf = items[:0]
		abalg.SpinPause(&spins)
	}
}

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, stopping early if fn returns false. Safe under concurrency;
// per-leaf atomic (see file comment). fn may run point operations on
// this Thread but must not start another scan on it: scans reuse the
// Thread's scratch buffers.
func (th *Thread) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	// Bounds are clamped to the representable key space [1, 2^64-2]
	// (keys 0 and 2^64-1 are reserved); an empty or inverted interval
	// returns before touching the tree, with no callbacks — uniform
	// across every scan-capable structure (bench's cross-structure
	// bounds test pins this).
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
		items, ok := t.snapshotLeaf(th.pairBuf[:0], leaf, cursor, hi)
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
		// The next leaf's range starts at this leaf's upper bound.
		cursor = bound
	}
}
