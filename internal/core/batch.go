package core

// Batched point operations (dict.Batcher, dict.StagedBatcher). The
// staging, the level-synchronous partition descent and the per-leaf
// runs are internal/abalg's (batch.go), written once for this store and
// internal/pabtree's. The descent reaches this package through Touch (a
// load from each cache line of the node, node.touch), Kind and Branch
// (the routing loop Route shares, node.route); each leaf's run through
// AppendLeaf (finds, seam.go) and the per-key locked writes PutLocked
// and DeleteLocked (updates, ops.go).

import (
	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i]. Like Find it takes no locks.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	abalg.FindBatch(th, keys, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent. Each leaf's run
// applies under one lock acquisition; on Elim-ABtrees each key's version
// window still publishes its record.
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	abalg.InsertBatch(th, keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i]. Each leaf's run applies
// under one lock acquisition.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	abalg.DeleteBatch(th, keys, prev, deleted)
}

// ApplyStaged applies op to a batch already staged and sorted by key
// (dict.StagedBatcher).
func (th *Thread) ApplyStaged(op batchkit.Op, ents []batchkit.Ent, vals, res []uint64, ok []bool) {
	abalg.ApplyStaged(th, op, ents, vals, res, ok)
}
