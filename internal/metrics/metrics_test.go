package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestBucketMapping: the value->bucket mapping is monotone, contiguous,
// and inverted by BucketLow/BucketHigh (every value lands inside its
// bucket's [low, high] range), with exact buckets below 2^SubBits.
func TestBucketMapping(t *testing.T) {
	if bucketIdx(0) != 0 {
		t.Fatalf("bucketIdx(0) = %d", bucketIdx(0))
	}
	for v := uint64(0); v < subCount; v++ {
		if got := bucketIdx(v); got != int(v) {
			t.Fatalf("small value %d maps to bucket %d, want exact", v, got)
		}
	}
	prev := -1
	probes := []uint64{0, 1, subCount - 1, subCount, subCount + 1, 100, 1000, 1 << 20, MaxValue, MaxValue + 1, ^uint64(0)}
	for e := uint(0); e < 64; e++ {
		probes = append(probes, uint64(1)<<e, uint64(1)<<e-1, uint64(1)<<e+1)
	}
	for _, v := range probes {
		i := bucketIdx(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range [0,%d)", v, i, NumBuckets)
		}
		clamped := v
		if clamped > MaxValue {
			clamped = MaxValue
		}
		if lo, hi := BucketLow(i), BucketHigh(i); clamped < lo || clamped > hi {
			t.Fatalf("value %d in bucket %d [%d,%d] — not contained", v, i, lo, hi)
		}
	}
	_ = prev
	// Monotone + contiguous over a dense sweep of the first octaves and a
	// sparse sweep above: bucket indexes never decrease and never skip.
	prev = 0
	for v := uint64(1); v < 1<<16; v++ {
		i := bucketIdx(v)
		if i < prev || i > prev+1 {
			t.Fatalf("bucketIdx(%d) = %d after %d — not contiguous", v, i, prev)
		}
		prev = i
	}
	// BucketLow is the exact inverse on bucket boundaries.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketIdx(BucketLow(i)); got != i {
			t.Fatalf("bucketIdx(BucketLow(%d)) = %d", i, got)
		}
		if got := bucketIdx(BucketHigh(i)); got != i {
			t.Fatalf("bucketIdx(BucketHigh(%d)) = %d", i, got)
		}
	}
}

// TestQuantileKnownDistributions: quantiles over known inputs land
// within the histogram's guaranteed relative error.
func TestQuantileKnownDistributions(t *testing.T) {
	relErr := 1.0 / (1 << SubBits)

	// Uniform 1..N.
	var h Histogram
	const N = 100_000
	for v := uint64(1); v <= N; v++ {
		h.Record(0, v)
	}
	var s Snapshot
	h.Snapshot(&s)
	if s.Count != N {
		t.Fatalf("count %d, want %d", s.Count, N)
	}
	if s.Sum != N*(N+1)/2 {
		t.Fatalf("sum %d, want %d", s.Sum, uint64(N)*(N+1)/2)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, N / 2}, {0.9, 9 * N / 10}, {0.99, 99 * N / 100}, {0.999, 999 * N / 1000}, {1, N}} {
		got := float64(s.Quantile(c.q))
		if got < c.want*(1-relErr) || got > c.want*(1+relErr)+1 {
			t.Errorf("uniform q%.3f = %.0f, want %.0f ±%.1f%%", c.q, got, c.want, 100*relErr)
		}
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %d, want 1", got)
	}
	if got, want := float64(s.Max()), float64(N); got < want || got > want*(1+relErr) {
		t.Errorf("Max = %.0f, want ~%.0f", got, want)
	}
	if got, want := s.Mean(), float64(N+1)/2; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}

	// Point mass: every quantile is the (bucketed) point.
	var hp Histogram
	for i := 0; i < 1000; i++ {
		hp.Record(i, 10_000) // any hint works
	}
	hp.Snapshot(&s)
	for _, q := range []float64{0.001, 0.5, 0.999, 1} {
		got := float64(s.Quantile(q))
		if got < 10_000 || got > 10_000*(1+relErr) {
			t.Errorf("point mass q%v = %.0f, want ~10000", q, got)
		}
	}

	// Two-point mass 90/10: p50 at the low point, p99 at the high one.
	var h2 Histogram
	for i := 0; i < 900; i++ {
		h2.Record(0, 100)
	}
	for i := 0; i < 100; i++ {
		h2.Record(0, 1_000_000)
	}
	h2.Snapshot(&s)
	if got := float64(s.Quantile(0.5)); got < 100 || got > 100*(1+relErr)+1 {
		t.Errorf("two-point p50 = %.0f, want ~100", got)
	}
	if got := float64(s.Quantile(0.99)); got < 1_000_000 || got > 1_000_000*(1+relErr) {
		t.Errorf("two-point p99 = %.0f, want ~1e6", got)
	}
}

// TestQuantileEdgeCases: empty snapshots, single observations, and
// bucket-boundary values.
func TestQuantileEdgeCases(t *testing.T) {
	var s Snapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
	var h Histogram
	h.Record(0, 42)
	h.Snapshot(&s)
	for _, q := range []float64{0.0001, 0.5, 1} {
		if got := s.Quantile(q); got != 42 {
			t.Fatalf("single observation q%v = %d, want 42 (exact bucket)", q, got)
		}
	}
	// Values straddling the exact/log boundary and octave boundaries.
	var hb Histogram
	for _, v := range []uint64{subCount - 1, subCount, subCount + 1, 63, 64, 65} {
		hb.Record(0, v)
	}
	hb.Snapshot(&s)
	if s.Count != 6 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Min() != subCount-1 {
		t.Fatalf("Min %d, want %d", s.Min(), subCount-1)
	}
	// Clamped values land in the last bucket, not out of range.
	var hc Histogram
	hc.Record(0, ^uint64(0))
	hc.Snapshot(&s)
	if s.Count != 1 || s.Quantile(1) != MaxValue {
		t.Fatalf("clamped record: count=%d q1=%d", s.Count, s.Quantile(1))
	}
}

// TestSnapshotMerge: merging shard-striped and separately recorded
// histograms is equivalent to recording everything into one.
func TestSnapshotMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var parts [4]Histogram
	var whole Histogram
	for i := 0; i < 50_000; i++ {
		v := uint64(rng.Int63n(1 << 30))
		parts[i%4].Record(i, v)
		whole.Record(i, v)
	}
	var merged, want, tmp Snapshot
	for i := range parts {
		parts[i].Snapshot(&tmp)
		merged.Merge(&tmp)
	}
	whole.Snapshot(&want)
	if merged != want {
		t.Fatal("merge of parts differs from recording the whole")
	}
	// Merge is also how deltas accumulate: merging an empty snapshot is
	// the identity.
	var empty Snapshot
	merged.Merge(&empty)
	if merged != want {
		t.Fatal("merging an empty snapshot changed the result")
	}
}

// TestCounterGauge: striped counters and gauges merge their stripes.
func TestCounterGauge(t *testing.T) {
	var c Counter
	for i := 0; i < 100; i++ {
		c.Add(i, 2)
		c.Inc(i)
	}
	if got := c.Load(); got != 300 {
		t.Fatalf("counter = %d, want 300", got)
	}
	var g Gauge
	for i := 0; i < 10; i++ {
		g.Add(i, 5)
	}
	for i := 0; i < 10; i++ {
		g.Add(i+3, -4) // different stripe than the +5s: only the sum matters
	}
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
}

// TestConcurrentWriters: racing writers on every instrument kind lose
// nothing (run under -race in CI).
func TestConcurrentWriters(t *testing.T) {
	const (
		workers = 8
		perW    = 20_000
	)
	var h Histogram
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Record(w, uint64(i))
				c.Inc(w)
				g.Add(w, 1)
				g.Add(w, -1)
			}
		}(w)
	}
	wg.Wait()
	var s Snapshot
	h.Snapshot(&s)
	if s.Count != workers*perW {
		t.Fatalf("histogram count %d, want %d", s.Count, workers*perW)
	}
	if c.Load() != workers*perW {
		t.Fatalf("counter %d, want %d", c.Load(), workers*perW)
	}
	if g.Load() != 0 {
		t.Fatalf("gauge %d, want 0", g.Load())
	}
}

// stripes counts the histogram's materialised stripes.
func stripes(h *Histogram) int {
	n := 0
	for i := range h.shards {
		if h.shards[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestHistogramStripesOnFirstWrite: an unwritten histogram is NumShards
// pointers, and a record materialises exactly the stripe it hints.
func TestHistogramStripesOnFirstWrite(t *testing.T) {
	if got, want := unsafe.Sizeof(Histogram{}), uintptr(NumShards*8); got != want {
		t.Fatalf("Sizeof(Histogram) = %d, want %d (one pointer per stripe)", got, want)
	}
	var h Histogram
	var s Snapshot
	h.Snapshot(&s)
	if s.Count != 0 || stripes(&h) != 0 {
		t.Fatalf("empty histogram: count %d, %d stripes", s.Count, stripes(&h))
	}
	h.Record(5, 42)
	if n := stripes(&h); n != 1 || h.shards[5].Load() == nil {
		t.Fatalf("one Record materialised %d stripes, want only stripe 5", n)
	}
	h.Record(5+NumShards, 43) // same stripe after the hint is reduced
	if n := stripes(&h); n != 1 {
		t.Fatalf("a second Record on the same stripe materialised %d stripes", n)
	}
	h.Snapshot(&s)
	if s.Count != 2 || s.Sum != 85 {
		t.Fatalf("snapshot count %d sum %d, want 2 and 85", s.Count, s.Sum)
	}
}

// TestFirstWriteRace: writers racing to record the first value into the
// same unwritten stripe must all land in the one stripe that gets
// published. A stripe installed by a plain store instead of a
// CompareAndSwap loses the counts recorded into the overwritten stripe.
func TestFirstWriteRace(t *testing.T) {
	const writers = 8
	for rep := 0; rep < 1000; rep++ {
		var h Histogram
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				h.Record(3, uint64(w))
			}(w)
		}
		close(start)
		wg.Wait()
		var s Snapshot
		h.Snapshot(&s)
		if s.Count != writers || s.Sum != writers*(writers-1)/2 {
			t.Fatalf("rep %d: count %d sum %d, want %d and %d", rep, s.Count, s.Sum, writers, writers*(writers-1)/2)
		}
	}
}
