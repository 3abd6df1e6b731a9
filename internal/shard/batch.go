package shard

// Batched point operations across the partition: the composed handle
// implements dict.Batcher for every shard composition. A batch is
// staged once, into per-handle scratch sorted by key (ties by input
// position), which makes each shard's keys one contiguous run — the
// range partition and the sort agree on order. A shard whose handle is
// a dict.StagedBatcher gets its run as it is, a sub-slice of the staged
// batch, together with the caller's slices: the shard's level loop
// shares each node among the run's keys, overlaps the run's cache
// misses level by level and writes each result at its key's input
// index. Other shards get a per-key loop over the run. Like the
// cross-shard scans, all plumbing is per-handle scratch: steady-state
// batches allocate nothing.

import "repro/internal/batchkit"

// FindBatch implements dict.Batcher (see internal/dict for the
// contract): every key routes to its owning shard, one run per shard.
func (h *handle) FindBatch(keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("shard: FindBatch result slices must match len(keys)")
	}
	h.applyBatch(batchkit.Find, keys, nil, vals, found)
}

// InsertBatch implements dict.Batcher.
func (h *handle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("shard: InsertBatch result slices must match len(keys)")
	}
	h.applyBatch(batchkit.Insert, keys, vals, prev, inserted)
}

// DeleteBatch implements dict.Batcher.
func (h *handle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("shard: DeleteBatch result slices must match len(keys)")
	}
	h.applyBatch(batchkit.Delete, keys, nil, prev, deleted)
}

// applyBatch stages the batch sorted by key and walks its per-shard
// runs in key order, applying each through applyRun.
func (h *handle) applyBatch(op batchkit.Op, keys, vals, res []uint64, ok []bool) {
	if len(keys) == 0 {
		return
	}
	ents := h.ents[:0]
	for i, k := range keys {
		ents = append(ents, batchkit.Ent{K: k, Idx: i})
	}
	ents, h.tmp = batchkit.Sort(ents, h.tmp)
	h.ents = ents
	for i := 0; i < len(ents); {
		s := h.d.bounds.Route(ents[i].K)
		j := batchkit.RunEnd(ents, i, h.d.bounds.High(s)+1)
		h.applyRun(op, s, ents[i:j], vals, res, ok)
		i = j
	}
}

// applyRun applies one shard's run: handed over whole when the shard
// handle is a dict.StagedBatcher, per-key loop otherwise.
func (h *handle) applyRun(op batchkit.Op, s int, run []batchkit.Ent, vals, res []uint64, ok []bool) {
	if sb := h.staged[s]; sb != nil {
		sb.ApplyStaged(op, run, vals, res, ok)
		return
	}
	hh := h.hs[s]
	for _, e := range run {
		switch op {
		case batchkit.Find:
			res[e.Idx], ok[e.Idx] = hh.Find(e.K)
		case batchkit.Insert:
			res[e.Idx], ok[e.Idx] = hh.Insert(e.K, vals[e.Idx])
		default:
			res[e.Idx], ok[e.Idx] = hh.Delete(e.K)
		}
	}
}
