// Package dict defines the canonical dictionary interface every data
// structure in this repository is served through: the Dict/Handle pair
// the benchmark harness, the YCSB drivers, the sharding layer and the
// CLIs are written against.
//
// The interfaces were born inside internal/bench as package-private
// adapter plumbing; they are hoisted here so that higher layers can be
// composed without importing the harness. internal/bench's registry
// adapts each concrete tree to Dict; internal/shard composes N Dicts
// into one; both CLIs and the workload drivers consume only this
// package's types.
//
// The capability interfaces (Ranger, SnapshotRanger, SnapshotAtRanger,
// Batcher, StagedBatcher, RQClocked, ElimStatser, RQStatser) are
// discovered by type assertion, never required: a structure
// participates in exactly the workloads its handles can serve.
package dict

import (
	"repro/internal/batchkit"
	"repro/internal/rq"
)

// Handle is a per-goroutine accessor for a dictionary. Handles are not
// safe for concurrent use; create one per worker goroutine (structures
// without per-thread state may return themselves).
type Handle interface {
	Find(key uint64) (uint64, bool)
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
}

// Dict abstracts a data structure under test or in service.
type Dict interface {
	// NewHandle returns a per-goroutine accessor.
	NewHandle() Handle
	// KeySum returns the quiescent wrapping sum of keys (the paper's §6
	// validation scheme).
	KeySum() uint64
}

// Ranger is implemented by handles that support range scans. The scan
// need not be one atomic snapshot (the ABtrees' Range is per-leaf
// atomic, the CATree's per-base atomic); structures implementing it
// participate in scan workloads. fn may run point operations on the
// same handle but must not start another scan on it: handles may reuse
// per-scan scratch state.
type Ranger interface {
	Range(lo, hi uint64, fn func(k, v uint64) bool)
}

// SnapshotRanger is implemented by handles whose range scans are single
// atomic snapshots (linearizable range queries, internal/rq). The
// Ranger callback contract applies here too: fn may run point
// operations on the same handle but must not start another scan on it.
type SnapshotRanger interface {
	RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool)
}

// SnapshotAtRanger is implemented by handles that can serve a snapshot
// scan at an externally drawn linearization timestamp. The caller must
// hold the timestamp active on the structure's rq clock (an rq.Scanner
// between Begin and End) for the duration of the call; internal/shard
// uses this to run one scan timestamp across every shard of a
// partitioned dictionary. The Ranger callback contract applies here
// too: fn may run point operations on the same handle but must not
// start another scan on it.
type SnapshotAtRanger interface {
	RangeSnapshotAt(ts, lo, hi uint64, fn func(k, v uint64) bool)
}

// Batcher is implemented by handles that support batched point
// operations: MultiGet/MultiPut-style calls that amortize root-to-leaf
// descents and lock/version acquisitions across many keys (the trees
// sort each batch into per-leaf runs and apply a whole run under one
// leaf acquisition). The contract, for all three methods:
//
//   - Every result slice must have the same length as keys; the
//     implementations panic otherwise. Results land at the index of
//     their key, i.e. in input order, regardless of how the batch was
//     reordered internally.
//   - Each key's operation is individually linearizable, with the same
//     semantics as the corresponding Handle method. The batch as a
//     whole is NOT atomic: concurrent operations may interleave between
//     (and observe the effects of) any two keys of one batch.
//   - Operations on distinct keys may apply in any order; operations on
//     equal keys within one batch apply in input order, so a batch's
//     results always equal some per-key loop execution of the same
//     calls.
//
// Structures without a native implementation are served by the generic
// per-key loop adapter in internal/treedict (BatcherFor), so batched
// workloads run against every registry entry.
type Batcher interface {
	// FindBatch looks up keys[i] for every i, storing the value into
	// vals[i] and its presence into found[i].
	FindBatch(keys []uint64, vals []uint64, found []bool)
	// InsertBatch inserts <keys[i], vals[i]> where keys[i] is absent
	// (inserted[i] = true); where present, the structure is unchanged
	// and prev[i] holds the existing value (inserted[i] = false).
	InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool)
	// DeleteBatch removes keys[i] where present, storing the removed
	// value into prev[i] (deleted[i] = true); absent keys leave the
	// structure unchanged (deleted[i] = false).
	DeleteBatch(keys []uint64, prev []uint64, deleted []bool)
}

// StagedBatcher is implemented by handles that apply a batch staged by
// the caller (internal/shard stages a batch once and hands each shard its
// run): ents sorted by key, equal keys in input order (batchkit.Sort).
// Each result lands at its entry's Idx in res and ok, an insert's value
// is vals[Idx], and the Batcher contract holds.
type StagedBatcher interface {
	ApplyStaged(op batchkit.Op, ents []batchkit.Ent, vals, res []uint64, ok []bool)
}

// RQClocked is implemented by dictionaries whose range-query subsystem
// exposes its linearization clock. internal/shard requires it to
// verify a shard is actually coupled to the partition's shared clock
// before offering cross-shard snapshot scans: a SnapshotAtRanger on
// the wrong clock would interpret the scan timestamp against an
// unrelated counter and serve torn, unsafely pruned results.
type RQClocked interface {
	RQClock() *rq.Clock
}

// ElimStatser is implemented by dictionaries with publishing
// elimination; the CLI reports elimination rates for them.
type ElimStatser interface {
	ElimStats() (inserts, deletes, upserts uint64)
}

// RQStatser is implemented by dictionaries with the linearizable
// range-query subsystem compiled in: scans counts snapshot scans begun,
// versions counts superseded leaf states preserved for them.
type RQStatser interface {
	RQStats() (scans, versions uint64)
}

// ScanFunc resolves a handle's range-scan entry point: RangeSnapshot
// when snapshot is requested, Range otherwise; nil if the handle does
// not support the requested kind.
func ScanFunc(h Handle, snapshot bool) func(lo, hi uint64, fn func(k, v uint64) bool) {
	if snapshot {
		if sr, ok := h.(SnapshotRanger); ok {
			return sr.RangeSnapshot
		}
		return nil
	}
	if r, ok := h.(Ranger); ok {
		return r.Range
	}
	return nil
}
