// Package metrics is the production-observability substrate of the
// network service layer (and of the bench harness): monotonic counters,
// gauges and log-bucketed latency histograms that are safe for
// concurrent writers, cost a few nanoseconds per record, and allocate
// nothing on the hot path (enforced by TestAllocsMetrics, the same
// discipline TestAllocs* imposes on the trees and the wire).
//
// Concurrency model: every instrument is internally striped into
// NumShards cache-line-independent shards of atomic cells. A writer
// passes a shard hint — any small int that is stable for the calling
// goroutine (the server passes its worker index, the client a
// round-robin handle number, the bench harness its worker id) — so
// steady-state writers of a well-hinted instrument never contend on a
// cache line, and badly-hinted writers are merely slower, never wrong.
// Reading is a full-stripe merge (Snapshot/Load), intended for
// snapshot-rate consumers: the STATS/METRICS wire path, the debug HTTP
// endpoint, end-of-run reporting.
//
// A histogram stripe is a ~9 KB bucket array, so histograms allocate
// each stripe on its first write (one CompareAndSwap publishes it)
// instead of carrying all NumShards inline: a server with two workers
// pays for two stripes of the histograms its traffic writes, and
// nothing for the opcodes nobody sends. Only that first write per
// stripe allocates; every later record is the same two atomic adds.
//
// The histogram is HDR-style: values bucket by order of magnitude with
// 2^SubBits sub-buckets per octave, so any recorded value lands in a
// bucket whose width is at most value/2^SubBits — a bounded ~3%
// relative error for every quantile, independent of the distribution's
// range, in a fixed NumBuckets-entry array. Snapshots merge (shard into
// snapshot, snapshot into snapshot) by plain bucket addition, which is
// what lets per-worker stripes, per-client handles and whole remote
// servers aggregate into one percentile extraction.
package metrics

import "math/bits"

// NumShards is the stripe count of every instrument (a power of 2).
// Hints are reduced mod NumShards; more writers than this share
// stripes, which costs contention, not correctness.
const NumShards = 8

const hintMask = NumShards - 1

// Histogram bucket geometry. Values are clamped to [0, MaxValue]:
// recording latencies in nanoseconds, MaxValue is ~18 minutes, far
// beyond any service latency this stack can produce (the server's
// write deadline alone caps stalls at a minute).
const (
	// SubBits is the per-octave sub-bucket resolution: buckets subdivide
	// each power of two into 2^SubBits slots, bounding the relative
	// error of any quantile at 2^-SubBits (~3%).
	SubBits = 5

	subCount = 1 << SubBits

	// maxExp: values at or above 2^maxExp clamp into the last bucket.
	maxExp = 40

	// MaxValue is the largest distinguishable recorded value.
	MaxValue = uint64(1)<<maxExp - 1

	// NumBuckets is the fixed bucket-array length: 2^SubBits exact
	// buckets for values < 2^SubBits, then 2^SubBits log-spaced buckets
	// per octave up to 2^maxExp.
	NumBuckets = (maxExp-SubBits)<<SubBits + subCount
)

// bucketIdx maps a value to its bucket. Values below subCount map
// exactly (bucket width 1); above, the top SubBits bits after the
// leading one select the sub-bucket within the value's octave. The
// mapping is monotone and contiguous across the exact/log boundary.
func bucketIdx(v uint64) int {
	if v > MaxValue {
		v = MaxValue
	}
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // SubBits <= e < maxExp
	return (e-SubBits+1)<<SubBits + int((v>>(uint(e-SubBits)))&(subCount-1))
}

// BucketLow returns the smallest value that maps to bucket i.
func BucketLow(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	e := i>>SubBits + SubBits - 1
	return uint64(1)<<e + uint64(i&(subCount-1))<<(e-SubBits)
}

// BucketHigh returns the largest value that maps to bucket i.
func BucketHigh(i int) uint64 {
	if i >= NumBuckets-1 {
		return MaxValue
	}
	return BucketLow(i+1) - 1
}
