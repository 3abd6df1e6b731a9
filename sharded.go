package abtree

import (
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/rq"
	"repro/internal/shard"
	"repro/internal/treedict"
)

// ShardedTree is a range partition of n volatile ABtrees behind one
// dictionary: point operations route to the shard owning the key, and
// range queries cross shard boundaries — RangeSnapshot linearizably, on
// a linearization clock shared by all shards (internal/shard).
//
// Sharding multiplies the paper's single-tree scalability across
// partitions: each shard has its own locks, leaves and elimination
// records, so threads working different key slices never touch shared
// tree state, while the shared clock keeps cross-shard scans exactly as
// atomic as a single tree's (see ShardedHandle.RangeSnapshot).
type ShardedTree struct {
	d *shard.Dict
}

// ShardedHandle is the per-goroutine accessor for a ShardedTree; like
// Handle it must not be shared between goroutines.
type ShardedHandle struct {
	h dict.Handle
	r dict.Ranger
	s dict.SnapshotRanger
	b dict.Batcher
}

// NewSharded returns an n-way range partition of OCC-ABtrees over
// [1, keyRange] (keys above keyRange route to the last shard). opts
// configure every shard's tree.
func NewSharded(n int, keyRange uint64, opts ...Option) *ShardedTree {
	return newSharded(n, keyRange, false, opts)
}

// NewShardedElim returns an n-way range partition of Elim-ABtrees.
func NewShardedElim(n int, keyRange uint64, opts ...Option) *ShardedTree {
	return newSharded(n, keyRange, true, opts)
}

func newSharded(n int, keyRange uint64, elim bool, opts []Option) *ShardedTree {
	co := coreOpts(opts, elim)
	return &ShardedTree{d: shard.New(n, keyRange, func(_ int, c *rq.Clock) dict.Dict {
		return treedict.Core{T: core.New(append([]core.Option{core.WithRQClock(c)}, co...)...)}
	})}
}

// NewHandle returns a new per-goroutine accessor.
func (t *ShardedTree) NewHandle() *ShardedHandle {
	h := t.d.NewHandle()
	return &ShardedHandle{h: h, r: h.(dict.Ranger), s: h.(dict.SnapshotRanger), b: h.(dict.Batcher)}
}

// Shards returns the number of shards.
func (t *ShardedTree) Shards() int { return t.d.Shards() }

// KeySum returns the wrapping sum of keys across all shards (quiescent
// only).
func (t *ShardedTree) KeySum() uint64 { return t.d.KeySum() }

// ElimStats reports the shards' combined publishing-elimination
// counters (all zero for trees built with NewSharded).
func (t *ShardedTree) ElimStats() (inserts, deletes, upserts uint64) {
	return t.d.ElimStats()
}

// RQStats reports how many RangeSnapshot queries have run (a
// cross-shard scan counts once) and how many superseded leaf versions
// updates preserved for them, summed over shards.
func (t *ShardedTree) RQStats() (scans, versions uint64) { return t.d.RQStats() }

// Find returns the value associated with key, if present.
func (h *ShardedHandle) Find(key uint64) (uint64, bool) { return h.h.Find(key) }

// Insert inserts <key, val> if key is absent, returning (0, true); if
// present the dictionary is unchanged and the existing value returns.
func (h *ShardedHandle) Insert(key, val uint64) (uint64, bool) { return h.h.Insert(key, val) }

// Delete removes key if present, returning its value and true.
func (h *ShardedHandle) Delete(key uint64) (uint64, bool) { return h.h.Delete(key) }

// FindBatch looks up every keys[i] (see Handle.FindBatch): the batch
// splits into one sorted sub-batch per shard, each served by the
// shard's own batched fast path; results land in input order.
func (h *ShardedHandle) FindBatch(keys, vals []uint64, found []bool) {
	h.b.FindBatch(keys, vals, found)
}

// InsertBatch inserts every absent keys[i] (see Handle.InsertBatch),
// routed as one sorted sub-batch per shard.
func (h *ShardedHandle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	h.b.InsertBatch(keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i] (see Handle.DeleteBatch),
// routed as one sorted sub-batch per shard.
func (h *ShardedHandle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	h.b.DeleteBatch(keys, prev, deleted)
}

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, stopping early if fn returns false. Each shard's contribution
// carries the single tree's per-leaf atomicity; the scan as a whole is
// not one atomic snapshot. For that, use RangeSnapshot.
func (h *ShardedHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) { h.r.Range(lo, hi, fn) }

// RangeSnapshot calls fn for each pair with lo <= key <= hi in
// ascending key order, stopping early if fn returns false. The
// reported pairs are one atomic snapshot of the whole partitioned
// dictionary: the query draws one timestamp from the clock every shard
// shares and reads each shard's state as of that timestamp — without
// the shared clock, per-shard snapshots taken at different moments
// could tear across a boundary.
func (h *ShardedHandle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	h.s.RangeSnapshot(lo, hi, fn)
}
