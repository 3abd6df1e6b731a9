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
//     inherit the replaced leaves' version chains, restricted to each
//     new leaf's key range, so history survives arbitrary reshaping.
//     Retired chains on unlinked leaves are reclaimed exactly like the
//     leaves themselves: by the garbage collector for the volatile
//     trees, and alongside internal/epoch's grace period for the
//     persistent trees (a scan holds an epoch guard, so a retired
//     leaf's chain cannot be recycled under it).
//
//   - Chains are pruned by the writers that grow them, using the
//     registry of active scan timestamps: any snapshot older than the
//     newest snapshot still visible to the minimum active timestamp is
//     unreachable and is cut loose. Cut-loose snapshots — Version nodes
//     and their Items backing arrays — return to a per-Provider pool
//     and are handed back out by Acquire, so in steady state a
//     scan-heavy mix imposes no allocation on updaters: each push
//     reuses a node some earlier prune retired. Recycling at prune
//     time is safe precisely because of the pruning rule: MinActive
//     bounds every in-flight and future scan from below, a scan walks
//     a chain only down to its newest entry stamped below its own
//     timestamp, and entries the prune cuts lie strictly below the
//     entry visible at MinActive — no scan can be holding them.
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

// Version is an immutable snapshot of one leaf's contents (restricted to
// that leaf's key range), valid for scan timestamps t with
// Stamp < t <= stamp of the next-newer state. Items are sorted by key.
// Next links to the next-older snapshot; it is atomic only so that
// writers can prune the tail while concurrent scans walk the chain.
type Version struct {
	Stamp uint64
	Items []Pair
	next  atomic.Pointer[Version]
}

// Next returns the next-older snapshot in the chain, or nil.
func (v *Version) Next() *Version { return v.next.Load() }

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
// pool. Every node's Items keeps its backing array, emptied, so the
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
	for v := tail; v != nil; {
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
	p.prune(v, minActive)
	return v
}

// Push is PushAcquired for callers holding a bare items slice (tests,
// mostly): it wraps items in a fresh Version node, bypassing the pool
// on the way in but still recycling what its prune cuts loose.
func (p *Provider) Push(chain *Version, stamp uint64, items []Pair, minActive uint64) *Version {
	v := &Version{Stamp: stamp, Items: items}
	v.next.Store(chain)
	p.versions.Add(1)
	p.prune(v, minActive)
	return v
}

// prune cuts the chain after the newest entry stamped < minActive: that
// entry is the one a scan at minActive resolves to, and everything older
// is shadowed for every reachable timestamp — and, being unreachable,
// goes back to the pool.
func (p *Provider) prune(head *Version, minActive uint64) {
	for v := head; v != nil; v = v.next.Load() {
		if v.Stamp < minActive {
			if tail := v.next.Load(); tail != nil {
				v.next.Store(nil)
				p.recycleChain(tail)
			}
			return
		}
	}
}

// VisibleAt resolves chain for a scan timestamp t: the newest snapshot
// stamped < t. It returns nil if the chain holds no such snapshot —
// which, under the pruning rule, can only happen for timestamps no
// registered scan holds.
func VisibleAt(chain *Version, t uint64) *Version {
	for v := chain; v != nil; v = v.next.Load() {
		if v.Stamp < t {
			return v
		}
	}
	return nil
}

// newVersion allocates; it is the pool-less acquire used by the
// package-level Restrict/MergeTimelines.
func newVersion() *Version { return &Version{} }

// Restrict copies a timeline, keeping only items with lo <= key <= hi.
// Entries are kept even when their restriction is empty: an empty
// snapshot still records "no keys in this subrange at that time". The
// copy shares no links with the input, so the originals' pruning cannot
// disturb it.
func Restrict(chain *Version, lo, hi uint64) *Version {
	return restrict(chain, lo, hi, newVersion)
}

// Restrict is the package-level Restrict drawing the copied entries
// from the provider's version pool (the structural-modification path:
// replacement leaves inherit restricted copies of their predecessors'
// chains).
func (p *Provider) Restrict(chain *Version, lo, hi uint64) *Version {
	return restrict(chain, lo, hi, p.Acquire)
}

func restrict(chain *Version, lo, hi uint64, acquire func() *Version) *Version {
	var head, tail *Version
	for v := chain; v != nil; v = v.next.Load() {
		nv := acquire()
		nv.Stamp = v.Stamp
		for _, it := range v.Items {
			if it.K >= lo && it.K <= hi {
				nv.Items = append(nv.Items, it)
			}
		}
		if tail == nil {
			head = nv
		} else {
			tail.next.Store(nv)
		}
		tail = nv
	}
	return head
}

// MergeTimelines combines the timelines of two leaves with disjoint key
// ranges (a merge's inputs) into one: the result has an entry at every
// stamp where either side changed, holding the union of the two sides'
// states at that stamp. Sides whose history does not reach back to some
// stamp contribute their oldest known state (or nothing) — by the
// pruning rule no live scan resolves below the truncation point.
func MergeTimelines(a, b *Version) *Version {
	return mergeTimelines(a, b, newVersion)
}

// MergeTimelines is the package-level MergeTimelines drawing the merged
// entries from the provider's version pool.
func (p *Provider) MergeTimelines(a, b *Version) *Version {
	return mergeTimelines(a, b, p.Acquire)
}

func mergeTimelines(a, b *Version, acquire func() *Version) *Version {
	if a == nil && b == nil {
		return nil
	}
	as, bs := toSlice(a), toSlice(b)
	stamps := mergedStamps(as, bs)

	var head, tail *Version
	for _, s := range stamps { // descending
		ia, ib := itemsAt(as, s), itemsAt(bs, s)
		nv := acquire()
		nv.Stamp = s
		nv.Items = append(append(nv.Items, ia...), ib...)
		SortPairs(nv.Items)
		if tail == nil {
			head = nv
		} else {
			tail.next.Store(nv)
		}
		tail = nv
	}
	return head
}

func toSlice(v *Version) []*Version {
	var out []*Version
	for ; v != nil; v = v.next.Load() {
		out = append(out, v)
	}
	return out
}

// mergedStamps returns the union of the two entry-stamp sets, descending.
func mergedStamps(as, bs []*Version) []uint64 {
	var out []uint64
	i, j := 0, 0
	for i < len(as) || j < len(bs) {
		switch {
		case j == len(bs) || (i < len(as) && as[i].Stamp > bs[j].Stamp):
			out = append(out, as[i].Stamp)
			i++
		case i == len(as) || bs[j].Stamp > as[i].Stamp:
			out = append(out, bs[j].Stamp)
			j++
		default: // equal
			out = append(out, as[i].Stamp)
			i++
			j++
		}
	}
	return out
}

// itemsAt returns one side's state as of stamp s: its newest entry
// stamped <= s (entries are descending). nil if history was pruned
// below s.
func itemsAt(vs []*Version, s uint64) []Pair {
	for _, v := range vs {
		if v.Stamp <= s {
			return v.Items
		}
	}
	return nil
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
