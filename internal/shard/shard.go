// Package shard composes N per-shard dictionaries into one
// range-partitioned dict.Dict: point operations route to the shard
// owning the key, KeySum and the stats interfaces merge across shards,
// and — when the shards support it — range scans run across shard
// boundaries, with RangeSnapshot linearizable across the whole
// dictionary via a shared rq.Clock.
//
// Partitioning is by key range: shard i of n owns an equal slice of
// [1, keyRange], and the last shard additionally owns everything above
// keyRange (so workloads that append past the loaded key space, like
// YCSB Workload E's inserts, keep routing correctly). The shard map is
// immutable; rebalancing the partition is a higher layer's concern.
//
// Cross-shard linearizability: a plain per-shard snapshot scan draws a
// timestamp per shard at different moments, so a scan crossing a
// boundary could observe a later write in shard i+1 while missing an
// earlier write in shard i — a torn cut of the key space (the test
// suite's write-order witness demonstrates exactly this). Instead, New
// creates one rq.Clock and hands it to every shard builder; builders
// couple their trees to it (core.WithRQClock / pabtree.WithRQClock),
// making the clock the single linearization point for all shards. A
// cross-shard RangeSnapshot then draws ONE timestamp from the shared
// clock and reads every shard's state as of that timestamp through
// RangeSnapshotAt, which the internal/rq argument makes a single atomic
// snapshot of the whole dictionary: writers on any shard stamp against
// the same counter, and the clock-wide active-scan registry keeps every
// version chain the scan still needs from being pruned.
package shard

import (
	"fmt"

	"repro/internal/batchkit"
	"repro/internal/dict"
	"repro/internal/rq"
)

// Builder constructs shard i of a partitioned dictionary. clock is the
// dictionary's shared linearization clock: builders whose structures
// support snapshot scans must couple the tree to it (core.WithRQClock,
// pabtree.WithRQClock) or cross-shard RangeSnapshot will not be
// offered for the composed dictionary.
type Builder func(shard int, clock *rq.Clock) dict.Dict

// Dict is a range-partitioned dictionary over n sub-dictionaries. It
// implements dict.Dict; its handles additionally implement dict.Ranger
// and dict.SnapshotRanger/SnapshotAtRanger exactly when every shard's
// handles do.
type Dict struct {
	clock  *rq.Clock
	shards []dict.Dict
	bounds Bounds

	canRange bool // every shard handle implements dict.Ranger
	canSnap  bool // ... and dict.SnapshotAtRanger (shared-clock scans)
}

// New builds an n-way partition of [1, keyRange] (the last shard open
// above keyRange), constructing each shard with build around one shared
// linearization clock.
func New(n int, keyRange uint64, build Builder) *Dict {
	if n < 1 {
		panic(fmt.Sprintf("shard: need at least 1 shard, got %d", n))
	}
	d := &Dict{
		clock:  rq.NewClock(),
		shards: make([]dict.Dict, n),
		bounds: NewBounds(n, keyRange),
	}
	for i := range d.shards {
		d.shards[i] = build(i, d.clock)
	}
	// Probe one handle per shard for scan capabilities: the composed
	// handle only offers a scan kind every shard can serve. Snapshot
	// scans require three things of every shard — a SnapshotAtRanger
	// handle, Ranger (every SnapshotAtRanger in this repository is one,
	// keeping the capability lattice monotone), and proof via RQClocked
	// that the shard actually runs on THIS partition's clock: a
	// snapshot-capable shard whose builder ignored the clock (or a
	// nested partition, which always owns a private clock) would
	// interpret our timestamps against an unrelated counter and serve
	// torn, unsafely pruned results, so it degrades to weak Range only.
	d.canRange, d.canSnap = true, true
	for _, s := range d.shards {
		h := s.NewHandle()
		if _, ok := h.(dict.Ranger); !ok {
			d.canRange = false
		}
		if _, ok := h.(dict.SnapshotAtRanger); !ok {
			d.canSnap = false
		}
		if rc, ok := s.(dict.RQClocked); !ok || rc.RQClock() != d.clock {
			d.canSnap = false
		}
	}
	d.canSnap = d.canSnap && d.canRange
	return d
}

// Shards returns the number of shards.
func (d *Dict) Shards() int { return len(d.shards) }

// Clock returns the dictionary's shared linearization clock.
func (d *Dict) Clock() *rq.Clock { return d.clock }

// RQClock returns the shared clock (dict.RQClocked). A nested Dict
// reports its own private clock here, which the outer partition's
// coupling check rejects — nesting therefore composes point ops and
// weak Range but never claims cross-partition snapshot atomicity.
func (d *Dict) RQClock() *rq.Clock { return d.clock }

// Bounds is a range partition of the key domain [1, 2^64-2] into
// len(b)+1 parts: b[i] is the first key of part i+1, part 0 starts at
// key 1, and the last part is unbounded above. The sharded dictionary
// and the cluster router partition keys with it.
type Bounds []uint64

// NewBounds splits [1, keyRange] into n equal parts, the last one open
// above keyRange.
func NewBounds(n int, keyRange uint64) Bounds {
	step := max(keyRange/uint64(n), 1)
	b := make(Bounds, n-1)
	for i := range b {
		b[i] = 1 + step*uint64(i+1)
	}
	return b
}

// Route returns the index of the part owning key. The part count is
// registry-scale (single digits), so a linear sweep beats binary
// search.
func (b Bounds) Route(key uint64) int {
	for i, lo := range b {
		if key < lo {
			return i
		}
	}
	return len(b)
}

// Low returns the smallest key part i owns.
func (b Bounds) Low(i int) uint64 {
	if i == 0 {
		return 1
	}
	return b[i-1]
}

// High returns the largest key part i owns.
func (b Bounds) High(i int) uint64 {
	if i == len(b) {
		return ^uint64(0) - 1
	}
	return b[i] - 1
}

// NewHandle returns a per-goroutine accessor whose dynamic type exposes
// exactly the scan capabilities every shard supports.
func (d *Dict) NewHandle() dict.Handle {
	hs := make([]dict.Handle, len(d.shards))
	sb := make([]dict.StagedBatcher, len(d.shards))
	for i, s := range d.shards {
		hs[i] = s.NewHandle()
		sb[i], _ = hs[i].(dict.StagedBatcher)
	}
	base := handle{d: d, hs: hs, staged: sb}
	if !d.canRange {
		return &base
	}
	rh := rangeHandle{handle: base, rs: make([]dict.Ranger, len(hs))}
	for i, h := range hs {
		rh.rs[i] = h.(dict.Ranger)
	}
	if !d.canSnap {
		return &rh
	}
	sh := &snapHandle{rangeHandle: rh, sat: make([]dict.SnapshotAtRanger, len(hs))}
	for i, h := range hs {
		sh.sat[i] = h.(dict.SnapshotAtRanger)
	}
	return sh
}

// KeySum returns the wrapping sum of keys across all shards (quiescent
// only, like every KeySum in this repository).
func (d *Dict) KeySum() uint64 {
	var s uint64
	for _, sd := range d.shards {
		s += sd.KeySum()
	}
	return s
}

// ElimStats merges the shards' publishing-elimination counters (zero
// for shards without elimination).
func (d *Dict) ElimStats() (inserts, deletes, upserts uint64) {
	for _, sd := range d.shards {
		if es, ok := sd.(dict.ElimStatser); ok {
			i, de, u := es.ElimStats()
			inserts += i
			deletes += de
			upserts += u
		}
	}
	return inserts, deletes, upserts
}

// RQStats merges the shards' range-query statistics: scans is
// clock-wide (a cross-shard scan counts once, not once per shard);
// versions sums the leaf snapshots preserved by each shard's writers.
func (d *Dict) RQStats() (scans, versions uint64) {
	for _, sd := range d.shards {
		if rs, ok := sd.(dict.RQStatser); ok {
			s, v := rs.RQStats()
			if s > scans {
				scans = s // per-provider scans report the shared clock's count
			}
			versions += v
		}
	}
	return scans, versions
}

// handle routes point operations to the owning shard. It also
// implements dict.Batcher (batch.go): a batch is staged once and split
// into one sorted run per shard, handed over whole where the shard
// handle takes staged runs (staged[i] non-nil) and applied by per-key
// loop otherwise.
type handle struct {
	d      *Dict
	hs     []dict.Handle
	staged []dict.StagedBatcher // staged[i] is hs[i] if it takes staged runs, nil if not

	ents, tmp []batchkit.Ent // the staged batch and the sort's spare (batch.go)
}

func (h *handle) Find(key uint64) (uint64, bool) {
	return h.hs[h.d.bounds.Route(key)].Find(key)
}

func (h *handle) Insert(key, val uint64) (uint64, bool) {
	return h.hs[h.d.bounds.Route(key)].Insert(key, val)
}

func (h *handle) Delete(key uint64) (uint64, bool) {
	return h.hs[h.d.bounds.Route(key)].Delete(key)
}

// scanState is a handle's cross-shard scan plumbing, allocated once
// per handle so the scan hot path allocates nothing: the per-shard
// sub-scans receive the same long-lived wrapped callback, which relays
// to the scan-in-flight's fn and records an early stop so the shard
// loop can break out too. Handles are per-goroutine and fn must not
// start another scan on the same handle, so one state per handle
// suffices.
type scanState struct {
	fn      func(k, v uint64) bool
	stopped bool
	wrapped func(k, v uint64) bool
}

func (s *scanState) begin(fn func(k, v uint64) bool) {
	s.fn = fn
	s.stopped = false
	if s.wrapped == nil {
		s.wrapped = s.relay
	}
}

// end releases the callback so the handle does not pin whatever the
// last scan's closure captured.
func (s *scanState) end() { s.fn = nil }

func (s *scanState) relay(k, v uint64) bool {
	if !s.fn(k, v) {
		s.stopped = true
		return false
	}
	return true
}

// forEachShard drives one cross-shard scan: it walks the shards
// overlapping [lo, hi] in key order, clipping the interval to each
// shard's coverage and invoking call(i, sublo, subhi) per shard, and
// stops early once the scan's fn returned false (recorded in ss) or hi
// is reached. Both the weak and the snapshot scan are this loop around
// different per-shard entry points; call is a per-handle pre-bound
// method value, so the hot path allocates nothing.
func (d *Dict) forEachShard(lo, hi uint64, ss *scanState, fn func(k, v uint64) bool, call func(i int, sublo, subhi uint64)) {
	if hi < lo {
		return
	}
	ss.begin(fn)
	defer ss.end()
	for i := d.bounds.Route(max(lo, 1)); i < len(d.shards); i++ {
		sublo, subhi := max(lo, d.bounds.Low(i)), min(hi, d.bounds.High(i))
		if sublo > subhi {
			break
		}
		call(i, sublo, subhi)
		if ss.stopped || subhi == hi {
			return
		}
	}
}

// rangeHandle adds cross-shard weak scans: each shard's contribution
// carries that shard's Range guarantee (per-leaf or per-base atomic),
// and the concatenation is in ascending key order because the partition
// is by range — but the scan as a whole is not one atomic snapshot.
type rangeHandle struct {
	handle
	rs       []dict.Ranger
	ss       scanState
	callWeak func(i int, sublo, subhi uint64) // bound once, first Range
}

func (h *rangeHandle) weakShard(i int, sublo, subhi uint64) {
	h.rs[i].Range(sublo, subhi, h.ss.wrapped)
}

func (h *rangeHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	if h.callWeak == nil {
		h.callWeak = h.weakShard
	}
	h.d.forEachShard(lo, hi, &h.ss, fn, h.callWeak)
}

// snapHandle adds cross-shard linearizable scans on the shared clock.
type snapHandle struct {
	rangeHandle
	sat      []dict.SnapshotAtRanger
	sc       *rq.Scanner                      // lazily registered with the shared clock
	ts       uint64                           // timestamp of the snapshot scan in flight
	callSnap func(i int, sublo, subhi uint64) // bound once, first snapshot scan
}

func (h *snapHandle) snapShard(i int, sublo, subhi uint64) {
	h.sat[i].RangeSnapshotAt(h.ts, sublo, subhi, h.ss.wrapped)
}

// RangeSnapshot draws one timestamp from the shared clock and reads
// every overlapping shard's state as of that timestamp: a single atomic
// snapshot of the whole partitioned dictionary (see the package
// comment for why per-shard timestamps would tear).
func (h *snapHandle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	if h.sc == nil {
		h.sc = h.d.clock.Register()
	}
	ts := h.sc.Begin()
	defer h.sc.End()
	h.RangeSnapshotAt(ts, lo, hi, fn)
}

// RangeSnapshotAt reports the dictionary's state as of ts. The caller
// must hold ts active on the dictionary's own clock (see RQClock: an
// outer partition never routes here, because a nested Dict's private
// clock fails the outer coupling check).
func (h *snapHandle) RangeSnapshotAt(ts, lo, hi uint64, fn func(k, v uint64) bool) {
	if h.callSnap == nil {
		h.callSnap = h.snapShard
	}
	h.ts = ts
	h.d.forEachShard(lo, hi, &h.ss, fn, h.callSnap)
}
