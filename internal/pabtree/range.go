package pabtree

// Range scanning for the persistent trees — same per-leaf-consistent
// semantics as internal/core/range.go: each leaf contributes an atomic
// snapshot; the scan hops leaves using the key-range upper bounds found
// on the search path.
//
// The scan fast path mirrors internal/core/range.go — the Thread caches
// its latest root-to-leaf descent (node offsets with the key-range
// bounds accumulated beside them) and resumes each hop from the deepest
// cached ancestor still covering the cursor, collecting into per-Thread
// scratch so a warmed-up scan allocates nothing — with one persistence
// twist: node slots are recycled through internal/epoch, so a cached
// offset is only meaningful inside the epoch critical section it was
// read in. Scans therefore reset the cache on entry and reuse it only
// across the hops of one call (which is where the re-descents were);
// within the section a retired slot cannot be recycled, so a stale
// cached node is at worst marked, never a different node.

import (
	"repro/internal/abalg"
	"repro/internal/rq"
)

// maxScanDepth bounds the cached descent; deeper trees (unreachable at
// sane degrees) still scan correctly, bypassing the cache.
const maxScanDepth = 32

// scanLevel is one level of a cached descent: the node offset and the
// key range [lo, hi) its subtree covered along this path (hasHi false =
// unbounded above). One struct per level keeps a level's reads and
// writes inside one cache line (mirrors internal/core/range.go).
type scanLevel struct {
	n     uint64
	lo    uint64
	hi    uint64
	hasHi bool
}

// scanPath is a Thread's cached descent, root-to-leaf. Level 0 is the
// entry sentinel.
type scanPath struct {
	lvl   [maxScanDepth]scanLevel
	depth int // levels filled; 0 = empty
}

// invalidate empties the cache: the next hop descends from the root.
func (p *scanPath) invalidate() { p.depth = 0 }

// resumeLevel returns the deepest cached proper ancestor of the leaf
// whose subtree still covers key and which has not been unlinked; 0
// (the entry) when nothing better is cached.
func (t *Tree) resumeLevel(p *scanPath, key uint64) int {
	for i := p.depth - 2; i > 0; i-- {
		l := &p.lvl[i]
		if key >= l.lo && (!l.hasHi || key < l.hi) && !t.vn(l.n).marked.Load() {
			return i
		}
	}
	return 0
}

// searchScan descends to the leaf for key, resuming from the Thread's
// cached path when possible (valid only within the current epoch
// critical section) and re-caching the path it takes. It reports the
// leaf's key-range upper bound; hasBound is false for the rightmost
// leaf.
func (th *Thread) searchScan(key uint64) (leaf uint64, bound uint64, hasBound bool) {
	t := th.t
	p := &th.path
	if th.noScanCache {
		p.invalidate()
	}
	lvl := 0
	if p.depth > 0 {
		lvl = t.resumeLevel(p, key)
	}
	if lvl == 0 {
		p.lvl[0] = scanLevel{n: t.entryOff}
	}
	return t.descendPath(p, lvl, key)
}

// descendPath finishes a descent from the cached level lvl, recording
// the levels it visits. A tree deeper than maxScanDepth (unreachable
// at sane degrees) stops recording and descends uncached.
func (t *Tree) descendPath(p *scanPath, lvl int, key uint64) (leaf uint64, bound uint64, hasBound bool) {
	n := p.lvl[lvl].n
	lo := p.lvl[lvl].lo
	bound, hasBound = p.lvl[lvl].hi, p.lvl[lvl].hasHi
	caching := true
	for {
		meta := t.meta(n)
		if kindOf(meta) == abalg.LeafKind {
			if caching {
				p.depth = lvl + 1
			}
			return n, bound, hasBound
		}
		nIdx := 0
		rk := nchildrenOf(meta) - 1
		for nIdx < rk {
			rkey := t.routingKey(n, nIdx)
			if key < rkey {
				bound, hasBound = rkey, true
				break
			}
			lo = rkey
			nIdx++
		}
		n = t.loadChild(n, nIdx)
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
}

// snapshotLeaf appends a consistent sorted copy of the leaf's pairs in
// [lo, hi] to buf. ok is false if the leaf has been unlinked (a cached
// path may have led here after the unlink; the frozen contents cannot
// be served).
func (t *Tree) snapshotLeaf(buf []rq.Pair, off uint64, lo, hi uint64) (items []rq.Pair, ok bool) {
	v := t.vn(off)
	spins := 0
	for {
		v1 := v.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			abalg.SpinPause(&spins)
			continue
		}
		if v.marked.Load() {
			return buf, false
		}
		items = buf
		for i := 0; i < t.b; i++ {
			k := t.leafKey(off, i)
			if k != emptyKey && k >= lo && k <= hi {
				items = append(items, rq.Pair{K: k, V: t.leafVal(off, i)})
			}
		}
		if v.ver.Load() == v1 {
			rq.SortPairs(items)
			return items, true
		}
		buf = items[:0]
		t.crashCheck()
		abalg.SpinPause(&spins)
	}
}

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, stopping early if fn returns false. Safe under concurrency;
// per-leaf atomic. fn may run point operations on this Thread but must
// not start another scan on it: scans reuse the Thread's scratch
// buffers.
func (th *Thread) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	// Bounds are clamped to the representable key space [1, 2^64-2]
	// (keys 0 and 2^64-1 are reserved); an empty or inverted interval
	// returns before touching the tree, with no callbacks — uniform
	// across every scan-capable structure.
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
		cursor = bound
	}
}
