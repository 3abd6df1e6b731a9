package pabtree

// Batched point operations for the persistent trees (dict.Batcher,
// dict.StagedBatcher). The staging, the level-synchronous partition
// descent and the per-leaf runs are internal/abalg's (batch.go), shared
// with internal/core. The descent reaches this package through Touch (a
// slot's three arena lines and its volatile header's version), Kind and
// Branch (the routing loop it shares with Route, Tree.route). Two
// persistence twists:
//
//   - node offsets are only meaningful inside an epoch critical section,
//     so each batched call runs all its rounds, with their frontier
//     offsets and splitting inserts (abalg.Insert), inside one;
//   - every mutation goes through PutLocked/DeleteLocked, so the batched
//     path has exactly the per-key flush discipline and durability
//     points.

import (
	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i]. Lock-free.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	th.enter()
	defer th.exit()
	abalg.FindBatch(th, keys, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent. Each leaf's run
// applies under one lock acquisition with the per-key flush discipline.
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	th.enter()
	defer th.exit()
	abalg.InsertBatch(th, keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i]. Each leaf's run applies
// under one lock acquisition.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	th.enter()
	defer th.exit()
	abalg.DeleteBatch(th, keys, prev, deleted)
}

// ApplyStaged applies op to a batch already staged and sorted by key
// (dict.StagedBatcher), inside one epoch critical section.
func (th *Thread) ApplyStaged(op batchkit.Op, ents []batchkit.Ent, vals, res []uint64, ok []bool) {
	th.enter()
	defer th.exit()
	abalg.ApplyStaged(th, op, ents, vals, res, ok)
}
