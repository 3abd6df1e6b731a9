package pabtree

// Batched point operations for the persistent trees (dict.Batcher). The
// level-synchronous partition descent, the per-leaf runs and the slow
// runner are internal/abalg's (batch.go), shared with internal/core. The
// descent reaches this package through Touch (a slot's three arena lines
// and its volatile header's version), Kind and Branch (the routing loop
// it shares with Route, Tree.route). Two persistence twists:
//
//   - node offsets are only meaningful inside an epoch critical section,
//     so each batched call brackets itself with one and resets the cached
//     scan path the slow runner uses (scanEnter); the frontier's offsets
//     and the splitting insert the slow runner falls back to
//     (abalg.Insert) live inside it;
//   - every mutation goes through PutLocked/DeleteLocked, so the batched
//     path has exactly the per-key flush discipline and durability
//     points.

import "repro/internal/abalg"

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i]. Lock-free.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	th.scanEnter()
	defer th.exit()
	abalg.FindBatch(th, keys, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent. Each leaf's run
// applies under one lock acquisition with the per-key flush discipline.
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	th.scanEnter()
	defer th.exit()
	abalg.InsertBatch(th, keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i]. Each leaf's run applies
// under one lock acquisition.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	th.scanEnter()
	defer th.exit()
	abalg.DeleteBatch(th, keys, prev, deleted)
}
