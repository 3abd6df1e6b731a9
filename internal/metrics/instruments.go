package metrics

import (
	"math"
	"sync/atomic"
)

// padCell is one stripe of a Counter/Gauge, padded so adjacent stripes
// never share a cache line.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a striped monotonic counter. The zero value is ready.
type Counter struct {
	shards [NumShards]padCell
}

// Add adds d to the counter via the hinted stripe.
func (c *Counter) Add(hint int, d uint64) {
	c.shards[uint(hint)&hintMask].v.Add(d)
}

// Inc adds 1 to the counter via the hinted stripe.
func (c *Counter) Inc(hint int) { c.Add(hint, 1) }

// Load returns the counter's current total (a sum over stripes; exact
// once writers are quiescent, momentarily torn while they race, like
// every merged read in this repository).
func (c *Counter) Load() uint64 {
	var t uint64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Gauge is a striped up/down gauge (in-flight depth, open connections).
// The zero value is ready. Individual stripes may go negative; only the
// merged Load is meaningful.
type Gauge struct {
	shards [NumShards]padCell
}

// Add adds d (which may be negative) via the hinted stripe.
func (g *Gauge) Add(hint int, d int64) {
	g.shards[uint(hint)&hintMask].v.Add(uint64(d))
}

// Load returns the merged gauge value.
func (g *Gauge) Load() int64 {
	var t uint64
	for i := range g.shards {
		t += g.shards[i].v.Load()
	}
	return int64(t)
}

// histShard is one stripe of a Histogram: a full bucket array plus the
// stripe's running sum. Count is derived (the bucket total), so a
// record is exactly two uncontended atomic adds. The tail pad keeps a
// stripe off its heap neighbour's last cache line.
type histShard struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Uint64
	_      [56]byte
}

// Histogram is a striped log-bucketed (HDR-style) histogram. The zero
// value is ready; see the package comment for the bucket geometry.
// Stripes are allocated on their first write, so a histogram costs
// NumShards pointers plus one stripe per hint that ever recorded.
type Histogram struct {
	shards [NumShards]atomic.Pointer[histShard]
}

// Record adds one observation of v via the hinted stripe.
func (h *Histogram) Record(hint int, v uint64) {
	i := uint(hint) & hintMask
	sh := h.shards[i].Load()
	if sh == nil {
		sh = h.install(i)
	}
	sh.counts[bucketIdx(v)].Add(1)
	sh.sum.Add(v)
}

// install publishes stripe i on its first write. Racing first writers
// each offer a stripe; one CompareAndSwap wins and every writer records
// into the winner, so no observation lands in a discarded stripe. It
// is kept out of line so that Record's body is only the hot path.
//
//go:noinline
func (h *Histogram) install(i uint) *histShard {
	h.shards[i].CompareAndSwap(nil, new(histShard))
	return h.shards[i].Load()
}

// Snapshot merges every stripe into dst, replacing dst's previous
// contents. dst is caller-owned scratch, so snapshotting allocates
// nothing. Stripes never written contribute nothing and are skipped.
func (h *Histogram) Snapshot(dst *Snapshot) {
	dst.Count, dst.Sum = 0, 0
	for b := range dst.Buckets {
		dst.Buckets[b] = 0
	}
	for i := range h.shards {
		sh := h.shards[i].Load()
		if sh == nil {
			continue
		}
		for b := range sh.counts {
			if n := sh.counts[b].Load(); n != 0 {
				dst.Buckets[b] += n
				dst.Count += n
			}
		}
		dst.Sum += sh.sum.Load()
	}
}

// Snapshot is a mergeable point-in-time histogram state: the unit the
// wire protocol ships, bench results carry, and quantiles extract from.
type Snapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Reset zeroes the snapshot.
func (s *Snapshot) Reset() {
	s.Count, s.Sum = 0, 0
	for i := range s.Buckets {
		s.Buckets[i] = 0
	}
}

// Merge adds o's observations into s (bucket-wise addition — the
// property that lets stripes, handles and servers aggregate).
func (s *Snapshot) Merge(o *Snapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i, n := range o.Buckets {
		s.Buckets[i] += n
	}
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of
// the recorded values: the high edge of the bucket holding the rank-q
// observation, within 2^-SubBits relative error of the true value.
// Returns 0 on an empty snapshot.
func (s *Snapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= rank {
			return BucketHigh(i)
		}
	}
	return MaxValue
}

// Mean returns the arithmetic mean of the recorded values (exact, from
// the running sum), or 0 on an empty snapshot.
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Min returns a lower bound for the smallest recorded value (the low
// edge of the first occupied bucket; exact for values < 2^SubBits).
func (s *Snapshot) Min() uint64 {
	for i, n := range s.Buckets {
		if n != 0 {
			return BucketLow(i)
		}
	}
	return 0
}

// Max returns an upper bound for the largest recorded value (the high
// edge of the last occupied bucket).
func (s *Snapshot) Max() uint64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return BucketHigh(i)
		}
	}
	return 0
}
