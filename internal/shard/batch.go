package shard

// Batched point operations across the partition: the composed handle
// implements dict.Batcher for every shard composition. A batch is
// staged into per-handle scratch sorted by key (ties by input
// position), which makes each shard's keys one contiguous run — the
// range partition and the sort agree on order. Each run is handed to
// the owning shard's native Batcher when its handle has one (the
// sub-batch is already sorted, so the shard's own level-synchronous
// partition descent shares each node among the run's keys and overlaps
// the run's cache misses level by level) or applied with a per-key loop
// otherwise, and
// results are scattered back through the staged input indices, so the
// caller sees input order. Like the cross-shard scans, all plumbing is
// per-handle scratch: steady-state batches allocate nothing.

import "repro/internal/batchkit"

// batchEnt is one staged key (see batchkit.Ent); insert payload values
// are reached through the caller's vals slice by index.
type batchEnt = batchkit.Ent

// batchOp selects which point operation a staged batch applies.
type batchOp uint8

const (
	bFind batchOp = iota
	bInsert
	bDelete
)

// batchState is a handle's batched-op scratch: the staged sorted batch
// (plus the sort's ping-pong partner) and the gather/scatter buffers
// for one shard's sub-batch.
type batchState struct {
	ents []batchEnt
	tmp  []batchEnt
	keys []uint64 // sub-batch keys, gathered per shard
	vals []uint64 // sub-batch values (inserts)
	res  []uint64 // sub-batch result values
	ok   []bool   // sub-batch result flags
}

// FindBatch implements dict.Batcher (see internal/dict for the
// contract): every key routes to its owning shard, one sub-batch per
// shard.
func (h *handle) FindBatch(keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("shard: FindBatch result slices must match len(keys)")
	}
	h.applyBatch(bFind, keys, nil, vals, found)
}

// InsertBatch implements dict.Batcher.
func (h *handle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("shard: InsertBatch result slices must match len(keys)")
	}
	h.applyBatch(bInsert, keys, vals, prev, inserted)
}

// DeleteBatch implements dict.Batcher.
func (h *handle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("shard: DeleteBatch result slices must match len(keys)")
	}
	h.applyBatch(bDelete, keys, nil, prev, deleted)
}

// applyBatch stages the batch sorted by key and walks its per-shard
// runs in key order, applying each through applyRun.
func (h *handle) applyBatch(op batchOp, keys, vals, res []uint64, ok []bool) {
	if len(keys) == 0 {
		return
	}
	st := &h.bs
	ents := st.ents[:0]
	for i, k := range keys {
		ents = append(ents, batchEnt{K: k, Idx: i})
	}
	ents, st.tmp = batchkit.Sort(ents, st.tmp)
	st.ents = ents
	i := 0
	for i < len(ents) {
		s := h.d.bounds.Route(ents[i].K)
		hi := h.d.bounds.High(s)
		j := i + 1
		for j < len(ents) && ents[j].K <= hi {
			j++
		}
		h.applyRun(op, s, ents[i:j], vals, res, ok)
		i = j
	}
}

// applyRun applies one shard's run: through the shard handle's native
// Batcher when it has one (gather the sorted sub-batch into scratch,
// scatter the sub-results back by input index), per-key loop otherwise.
func (h *handle) applyRun(op batchOp, s int, run []batchEnt, vals, res []uint64, ok []bool) {
	b := h.batchers[s]
	if b == nil {
		hh := h.hs[s]
		for _, e := range run {
			switch op {
			case bFind:
				res[e.Idx], ok[e.Idx] = hh.Find(e.K)
			case bInsert:
				res[e.Idx], ok[e.Idx] = hh.Insert(e.K, vals[e.Idx])
			default:
				res[e.Idx], ok[e.Idx] = hh.Delete(e.K)
			}
		}
		return
	}
	st := &h.bs
	subKeys := st.keys[:0]
	subVals := st.vals[:0]
	for _, e := range run {
		subKeys = append(subKeys, e.K)
		if op == bInsert {
			subVals = append(subVals, vals[e.Idx])
		}
	}
	subRes := st.res
	if cap(subRes) < len(run) {
		subRes = make([]uint64, len(run))
	}
	subRes = subRes[:len(run)]
	subOK := st.ok
	if cap(subOK) < len(run) {
		subOK = make([]bool, len(run))
	}
	subOK = subOK[:len(run)]
	switch op {
	case bFind:
		b.FindBatch(subKeys, subRes, subOK)
	case bInsert:
		b.InsertBatch(subKeys, subVals, subRes, subOK)
	default:
		b.DeleteBatch(subKeys, subRes, subOK)
	}
	for x, e := range run {
		res[e.Idx], ok[e.Idx] = subRes[x], subOK[x]
	}
	st.keys, st.vals, st.res, st.ok = subKeys, subVals, subRes, subOK
}
