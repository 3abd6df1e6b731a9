// Package rq provides the epoch-based range-query machinery that gives
// the (a,b)-trees in this repository linearizable range queries — the
// extension the paper defers to future work ("linearizable range queries
// could be added using the techniques described in [1]", §3, citing
// Arbel-Raviv & Brown's epoch-based range queries, PPoPP 2018).
//
// The design follows that line of work, adapted to leaf-structured trees
// whose leaves are modified in place under fine-grained locks:
//
//   - A Clock owns a global range-query timestamp and the registry of
//     active scans. Only range queries advance the timestamp (one
//     fetch-add per scan); updates merely read it, so point operations
//     never contend on the counter. A Clock can be shared by any number
//     of trees (each through its own Provider), in which case it is the
//     single linearization point for scans spanning all of them — the
//     basis of internal/shard's cross-shard linearizable scans.
//
//   - Every leaf write happens inside the leaf's version window (the
//     odd/even version protocol the tree already uses for its
//     double-collect searches). Inside the window — after the version
//     went odd, before any content word changes — the writer reads the
//     global timestamp c and compares it with the leaf's last write
//     stamp s. If no scan began since the last write (c == s, the
//     steady state of scan-free workloads) nothing else happens. If
//     c > s, a scan with timestamp in (s, c] may still need the leaf's
//     pre-write contents, so the writer pushes an immutable snapshot of
//     them, stamped s, onto the leaf's version chain before mutating.
//
//   - A scan obtains its linearization timestamp t with one fetch-add
//     and then reads each overlapping leaf with the usual double
//     collect. A leaf whose stamp is < t is current as of t (any write
//     it has absorbed read the counter before the scan's fetch-add and
//     therefore linearizes before the scan); a leaf whose stamp is >= t
//     was overwritten after the scan linearized, and the scan walks the
//     leaf's version chain to the newest snapshot stamped < t.
//
//   - Structural modifications (splitting inserts, merges,
//     distributions) replace leaves wholesale; the replacement nodes
//     inherit the replaced leaves' version chains by reference: a new
//     leaf's chain ends in an inheritance node (Inherit) that links the
//     replaced leaves' chains, split at a separator key, so history
//     survives arbitrary reshaping and no pair is copied. A chain may
//     therefore hold keys outside its leaf's range; a scan clips each
//     leaf's resolved state to the leaf's range. History behind an
//     inheritance node is shared and never mutated: it is reclaimed by
//     the garbage collector once no live chain reaches it.
//
//   - Chains are pruned by the writers that grow them, using the
//     registry of active scan timestamps: any snapshot older than the
//     newest snapshot still visible to the minimum active timestamp is
//     unreachable and is cut loose. Pruning stops at the chain's
//     inheritance node, where the leaf's own entries end. Cut-loose
//     snapshots — Version nodes and their Items backing arrays — return
//     to a per-Provider pool and are handed back out by Acquire, so in
//     steady state a scan-heavy mix imposes no allocation on updaters:
//     each push reuses a node some earlier prune retired. Recycling at
//     prune time is safe precisely because of the pruning rule:
//     MinActive bounds every in-flight and future scan from below, a
//     scan walks a chain only down to its newest entry stamped below
//     its own timestamp, and entries the prune cuts lie strictly below
//     the entry visible at MinActive — no scan can be holding them.
//
// Correctness hinges on two points. First, stamps order operations
// consistently with real time: if a write returns before a scan begins,
// the write's stamp (read before it returned) is strictly less than the
// scan's timestamp (a fetch-add after), and symmetrically a write that
// reads the counter after a scan's fetch-add is stamped >= t. Second,
// reading the stamp inside the version window makes the double collect
// arbitrate concurrent cases: a successful collect proves the leaf's
// window did not overlap the reads, so the writer's stamp read happened
// entirely before (its effect is in the collected content, stamp < t)
// or entirely after (stamp >= t, content excluded via the chain) the
// scan's fetch-add. Either way the scan returns exactly the state at
// its timestamp, for every leaf, which makes the whole scan one atomic
// snapshot.
package rq

import (
	"sync"
	"sync/atomic"
)

// idle marks a Scanner slot with no scan in flight.
const idle = ^uint64(0)

// Pair is one key-value pair in a version snapshot.
type Pair struct{ K, V uint64 }

// Version is an entry of a leaf's version chain. An own entry is an
// immutable snapshot of the leaf's contents, valid for scan timestamps
// t with Stamp < t <= stamp of the next-newer state; Items are sorted by
// key, and next (atomic so that writers can prune the tail while scans
// walk the chain) links to the next-older entry. An inheritance node
// (Inherit; right != nil) ends the chain: Stamp holds its separator key,
// next and right the histories below and above it. Both kinds fit 48 B.
type Version struct {
	Stamp uint64
	Items []Pair
	next  atomic.Pointer[Version]
	right *Version
}

// Next returns the next-older entry in the chain (an inheritance node's
// lower side), or nil.
func (v *Version) Next() *Version { return v.next.Load() }

// inherits reports whether v is an inheritance node.
func (v *Version) inherits() bool { return v.right != nil }

// LeafState is the range-query state every leaf embeds: TS is the global
// timestamp observed by the leaf's most recent write, Vers the chain of
// preserved pre-write states for in-flight scans. Both are written only
// inside the leaf's version window (or before the leaf is published).
type LeafState struct {
	TS   atomic.Uint64
	Vers atomic.Pointer[Version]
}

// Clock is a linearization clock: the global range-query timestamp and
// the registry of active scans. The zero timestamp predates every scan
// (scan timestamps start at 1), so freshly created leaves stamped 0 are
// current for every scan until their first post-scan write.
//
// A Clock is shared by every tree whose scans must be mutually
// linearizable: each tree couples to it through its own Provider, and a
// scan that draws one timestamp from the shared clock observes a single
// atomic snapshot across all of them.
type Clock struct {
	ts atomic.Uint64

	mu       sync.Mutex // guards scanner registration
	scanners atomic.Pointer[[]*Scanner]

	// scans counts Begin calls across every provider on this clock.
	// Off the point-operation fast path.
	scans atomic.Uint64
}

// NewClock returns a clock with no scans in flight.
func NewClock() *Clock {
	c := &Clock{}
	ss := make([]*Scanner, 0)
	c.scanners.Store(&ss)
	return c
}

// Provider couples one tree to a linearization clock (possibly shared
// with other trees), tracks the tree's version-chain statistics, and
// owns the tree's version pool: pruned snapshots come back through
// recycleChain and are reissued by Acquire.
//
// The pool is striped so that it never becomes a serialization point
// for writers: each stripe is a TryLock-guarded free list, and a
// writer that finds every stripe contended simply falls back to the
// allocator (Acquire) or the garbage collector (recycle) — the
// pre-pool behavior, degraded to gracefully instead of blocked on.
type Provider struct {
	clock    *Clock
	versions atomic.Uint64 // snapshots pushed by this tree's writers
	pairs    atomic.Uint64 // pairs those snapshots hold
	recycled atomic.Uint64 // snapshots returned to the pool by pruning

	rr      atomic.Uint64 // round-robin stripe cursor
	stripes [poolStripes]poolStripe
}

// poolStripe is padded to a 128-byte stride (mutex 8 + slice header
// 24 + pad 96) so adjacent stripes never share a cache line.
type poolStripe struct {
	mu   sync.Mutex
	pool []*Version
	_    [96]byte
}

// poolStripes spreads pool traffic; maxPoolStripe bounds each stripe's
// free list so overflow past a usage peak falls to the garbage
// collector instead of being retained forever.
const (
	poolStripes   = 8
	maxPoolStripe = 512
)

// Scanner is a per-thread registration with a Clock. A Scanner must
// not be used concurrently.
type Scanner struct {
	c        *Clock
	announce atomic.Uint64
	_        [64 - 8]byte // keep announcements off each other's cache lines
}

// NewProvider returns a provider on a private, freshly created clock —
// the single-tree configuration.
func NewProvider() *Provider { return NewProviderWith(NewClock()) }

// NewProviderWith returns a provider on c, which may be shared with any
// number of other providers (trees).
func NewProviderWith(c *Clock) *Provider { return &Provider{clock: c} }

// Clock returns the provider's linearization clock.
func (p *Provider) Clock() *Clock { return p.clock }

// Register adds a scanner slot for one worker thread.
func (c *Clock) Register() *Scanner {
	s := &Scanner{c: c}
	s.announce.Store(idle)
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.scanners.Load()
	ss := make([]*Scanner, len(old)+1)
	copy(ss, old)
	ss[len(old)] = s
	c.scanners.Store(&ss)
	return s
}

// Register adds a scanner slot for one worker thread on the provider's
// clock.
func (p *Provider) Register() *Scanner { return p.clock.Register() }

// Begin starts a scan: it announces a conservative lower bound, draws
// the scan's linearization timestamp with one fetch-add, and announces
// the final value. The scan observes exactly the writes stamped < t —
// on every tree sharing the clock.
func (s *Scanner) Begin() uint64 {
	// The pre-announcement (<= the final t) closes the race with a
	// concurrent MinActive reader that scans the registry between our
	// fetch-add and the final announcement.
	s.announce.Store(s.c.ts.Load())
	t := s.c.ts.Add(1)
	s.announce.Store(t)
	s.c.scans.Add(1)
	return t
}

// End retires the scan's timestamp reservation.
func (s *Scanner) End() { s.announce.Store(idle) }

// ReadStamp returns the current timestamp. Writers call it inside a
// leaf's version window to stamp the state they are about to install.
func (c *Clock) ReadStamp() uint64 { return c.ts.Load() }

// ReadStamp returns the current timestamp of the provider's clock.
func (p *Provider) ReadStamp() uint64 { return p.clock.ts.Load() }

// MinActive returns a timestamp m such that every in-flight scan — and
// every scan that will ever begin — has timestamp >= m. Snapshots
// shadowed for all t >= m can be pruned. Because the registry is
// clock-wide, the bound accounts for scans begun through every tree
// sharing the clock.
func (c *Clock) MinActive() uint64 {
	m := c.ts.Load() + 1 // future scans draw > current ts
	for _, s := range *c.scanners.Load() {
		if a := s.announce.Load(); a != idle && a < m {
			m = a
		}
	}
	return m
}

// MinActive returns the clock-wide pruning bound (see Clock.MinActive).
func (p *Provider) MinActive() uint64 { return p.clock.MinActive() }

// Stats reports how many scans have begun on the provider's clock
// (clock-wide: scans spanning several trees count once) and how many
// leaf snapshots this tree's writers have preserved for them.
func (p *Provider) Stats() (scans, versions uint64) {
	return p.clock.scans.Load(), p.versions.Load()
}

// Acquire returns a Version ready to be filled and pushed: Stamp and
// next are zero, Items is empty but carries whatever capacity the pool
// could recycle. Fill Items, then hand the node to PushAcquired. A
// fully contended pool allocates rather than blocks.
func (p *Provider) Acquire() *Version {
	start := p.rr.Add(1)
	for j := uint64(0); j < poolStripes; j++ {
		s := &p.stripes[(start+j)%poolStripes]
		if !s.mu.TryLock() {
			continue
		}
		if n := len(s.pool); n > 0 {
			v := s.pool[n-1]
			s.pool[n-1] = nil
			s.pool = s.pool[:n-1]
			s.mu.Unlock()
			return v
		}
		s.mu.Unlock()
	}
	return &Version{}
}

// recycleChain returns an unreachable chain (a pruned tail) to the
// pool, up to its first inheritance node: what lies behind one may be
// shared with a sibling leaf's chain, so it is left to the garbage
// collector. Every node's Items keeps its backing array, emptied, so the
// next Acquire reuses both the node and the buffer. Nodes that find
// every stripe contended or full are dropped to the garbage collector.
func (p *Provider) recycleChain(tail *Version) {
	n := uint64(0)
	start := p.rr.Add(1)
	var s *poolStripe
	for j := uint64(0); j < poolStripes; j++ {
		c := &p.stripes[(start+j)%poolStripes]
		if c.mu.TryLock() {
			s = c
			break
		}
	}
	for v := tail; v != nil && !v.inherits(); {
		next := v.next.Load()
		v.next.Store(nil)
		v.Stamp = 0
		v.Items = v.Items[:0]
		if s != nil && len(s.pool) < maxPoolStripe {
			s.pool = append(s.pool, v)
			n++
		}
		v = next
	}
	if s != nil {
		s.mu.Unlock()
	}
	p.recycled.Add(n)
}

// Pairs reports how many pairs the snapshots this tree's writers pushed
// hold: the history written on behalf of scans.
func (p *Provider) Pairs() uint64 { return p.pairs.Load() }

// Recycled reports how many pruned snapshots have been returned to the
// provider's pool (overflow dropped to the garbage collector is not
// counted).
func (p *Provider) Recycled() uint64 { return p.recycled.Load() }

// Pooled reports how many recycled snapshots currently sit in the pool
// awaiting reuse.
func (p *Provider) Pooled() int {
	n := 0
	for i := range p.stripes {
		s := &p.stripes[i]
		s.mu.Lock()
		n += len(s.pool)
		s.mu.Unlock()
	}
	return n
}

// PushAcquired prepends v — obtained from Acquire, Items filled (sorted
// by key) and not mutated afterwards — to chain, stamps it, and prunes
// entries no active or future scan can reach, recycling them into the
// pool. Callers hold the owning leaf's lock, so pushes to one chain
// never race; concurrent scans may be walking the chain, which pruning
// respects by only cutting links past the entry still visible at
// minActive (recycling inherits exactly that safety argument: see the
// package comment).
func (p *Provider) PushAcquired(chain *Version, stamp uint64, v *Version, minActive uint64) *Version {
	v.Stamp = stamp
	v.next.Store(chain)
	p.versions.Add(1)
	p.pairs.Add(uint64(len(v.Items)))
	p.prune(v, minActive)
	return v
}

// Push is PushAcquired for callers holding a bare items slice (tests,
// mostly): it wraps items in a fresh Version node, bypassing the pool
// on the way in but still recycling what its prune cuts loose.
func (p *Provider) Push(chain *Version, stamp uint64, items []Pair, minActive uint64) *Version {
	return p.PushAcquired(chain, stamp, &Version{Items: items}, minActive)
}

// prune cuts the chain after the newest entry stamped < minActive: that
// entry is the one a scan at minActive resolves to, and everything older
// is shadowed for every reachable timestamp — and, being unreachable,
// goes back to the pool. It stops at an inheritance node: the history
// behind one is shared, and the leaf's own entries end there.
func (p *Provider) prune(head *Version, minActive uint64) {
	for v := head; v != nil && !v.inherits(); v = v.next.Load() {
		if v.Stamp < minActive {
			if tail := v.next.Load(); tail != nil {
				v.next.Store(nil)
				p.recycleChain(tail)
			}
			return
		}
	}
}

// Inherit returns the history of a leaf that replaces others in a
// structural update, nil if both sides are nil: keys below sep resolve
// through left, the rest through right. The sides are linked, not
// copied, and never mutated again: prune and recycleChain stop at an
// inheritance node, so what lies behind one goes to the garbage
// collector once no chain reaches it, never back to the pool.
func Inherit(left, right *Version, sep uint64) *Version {
	if left == nil && right == nil {
		return nil
	}
	if right == nil {
		right = none
	}
	v := &Version{Stamp: sep, right: right}
	v.next.Store(left)
	return v
}

// none is a missing right side: no keys at any timestamp.
var none = &Version{}

// VisibleAt appends chain's pairs with lo <= key <= hi, as of scan
// timestamp t, to buf, in key order: those of the newest own entry
// stamped < t, or, if the walk reaches an inheritance node first, those
// each side resolves to at t, clipped to its side of the separator. ok
// is false if the walk finds neither — which, under the pruning rule,
// can only happen for timestamps no registered scan holds.
func VisibleAt(buf []Pair, chain *Version, t, lo, hi uint64) (out []Pair, ok bool) {
	for v := chain; v != nil; v = v.next.Load() {
		if v.inherits() {
			sep := v.Stamp
			if lo < sep {
				buf, _ = VisibleAt(buf, v.next.Load(), t, lo, min(hi, sep-1))
			}
			if hi >= sep {
				buf, _ = VisibleAt(buf, v.right, t, max(lo, sep), hi)
			}
			return buf, true
		}
		if v.Stamp < t {
			for _, it := range v.Items {
				if it.K >= lo && it.K <= hi {
					buf = append(buf, it)
				}
			}
			return buf, true
		}
	}
	return buf, false
}

// SortPairs sorts by key (insertion sort: inputs throughout the RQ
// machinery are near-sorted runs of at most a node's capacity).
func SortPairs(items []Pair) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && items[j].K > it.K {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}
