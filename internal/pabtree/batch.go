package pabtree

// Batched point operations for the persistent trees — the same design
// as internal/core/batch.go: stage the batch in per-Thread scratch,
// sort it stably by key (internal/batchkit's byte-skipping LSD radix),
// drive it down the tree with a partition descent that visits every
// touched node once, answer/apply each leaf's whole run under one
// double collect / one lock acquisition, and retry whatever a leaf
// could not serve (unlinked, or full mid-run) through the slow runner
// built on the cached scan path. Two persistence twists:
//
//   - node offsets are only meaningful inside an epoch critical
//     section, so each batched call brackets itself with enter/exit
//     (and resets the cached scan path the slow runner uses);
//   - every mutation goes through leafInsertLocked/leafDeleteLocked
//     (ops.go), so the batched path has exactly the per-key flush
//     discipline and durability points.
//
// See internal/dict.Batcher for the cross-structure contract (results
// in input order, per-key linearizable, batch not atomic).

import (
	"repro/internal/abalg"
	"repro/internal/batchkit"
)

// batchEnt is one key of an in-flight batched operation (see
// batchkit.Ent).
type batchEnt = batchkit.Ent

// orderBatch stages keys into the Thread's scratch, sorted for run
// formation.
func (th *Thread) orderBatch(keys []uint64) []batchEnt {
	ents := th.batchBuf[:0]
	for i, k := range keys {
		abalg.CheckKey(k)
		ents = append(ents, batchEnt{K: k, Idx: i})
	}
	ents, th.batchTmp = batchkit.Sort(ents, th.batchTmp)
	th.batchBuf = ents
	return ents
}

// batchOp selects which point operation a partition descent applies.
type batchOp uint8

const (
	bFind batchOp = iota
	bInsert
	bDelete
)

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i] (dict.Batcher). Lock-free.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("pabtree: FindBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.enter()
	defer th.exit()
	th.path.invalidate() // cached offsets from prior epoch sections are dead
	th.runSubtree(bFind, th.t.entryOff, th.orderBatch(keys), nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher).
// Each leaf's run applies under one lock acquisition with the per-key
// flush discipline; a leaf that fills mid-run falls back to the per-key
// splitting insert for the key that needed the split.
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("pabtree: InsertBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.enter()
	defer th.exit()
	th.path.invalidate()
	th.runSubtree(bInsert, th.t.entryOff, th.orderBatch(keys), vals, prev, inserted)
}

// DeleteBatch removes every present keys[i] (dict.Batcher). Each leaf's
// run applies under one lock acquisition; if a run leaves its leaf
// underfull the rebalance runs once per leaf, after the lock is
// released.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("pabtree: DeleteBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.enter()
	defer th.exit()
	th.path.invalidate()
	th.runSubtree(bDelete, th.t.entryOff, th.orderBatch(keys), nil, prev, deleted)
}

// runSubtree drives one sorted run down the subtree at offset n,
// splitting it among children by the immutable routing keys so every
// node the batch touches is visited exactly once. Single-child
// segments descend iteratively; multi-child partitions recurse,
// bounded by the tree height.
func (th *Thread) runSubtree(op batchOp, n uint64, run []batchEnt, vals, res []uint64, ok []bool) {
	t := th.t
	for {
		meta := t.meta(n)
		if kindOf(meta) == abalg.LeafKind {
			th.applyLeafRun(op, n, run, vals, res, ok)
			return
		}
		rk := nchildrenOf(meta) - 1
		i := 0
		for c := 0; c <= rk && i < len(run); c++ {
			end := len(run)
			if c < rk {
				b := t.routingKey(n, c)
				end = i
				for end < len(run) && run[end].K < b {
					end++
				}
			}
			if end == i {
				continue // no keys for this child: skip its pointer load
			}
			child := t.loadChild(n, c)
			if i == 0 && end == len(run) {
				n = child // whole run funnels into one child
				break
			}
			th.runSubtree(op, child, run[i:end], vals, res, ok)
			i = end
		}
		if i > 0 {
			return // run fully dispatched to children
		}
	}
}

// applyRunLocked applies run's keys to the locked leaf through
// leafInsertLocked/leafDeleteLocked, one version window and flush
// schedule per key. It reports how many staged keys it consumed and
// why it stopped (marked leaf: retry the run elsewhere; full leaf:
// run[consumed] needs the splitting insert). After unlocking it
// triggers the underfull repair exactly like the per-key delete path.
func (th *Thread) applyRunLocked(op batchOp, leaf uint64, run []batchEnt, vals, res []uint64, ok []bool) (consumed int, marked, full bool) {
	t := th.t
	th.Lock(leaf)
	lv := t.vn(leaf)
	if lv.marked.Load() {
		th.UnlockAll()
		return 0, true, false
	}
	i := 0
	for i < len(run) {
		e := run[i]
		if op == bInsert {
			done, old, ins := t.leafInsertLocked(leaf, e.K, vals[e.Idx])
			if !done {
				full = true
				break
			}
			res[e.Idx], ok[e.Idx] = old, ins
		} else {
			val, found, _ := t.leafDeleteLocked(leaf, e.K)
			res[e.Idx], ok[e.Idx] = val, found
		}
		i++
	}
	newSize := lv.leafSize()
	th.UnlockAll()
	if op == bDelete && newSize < t.a {
		abalg.FixUnderfull(th, leaf)
	}
	return i, false, full
}

// applyLeafRun serves one leaf's whole run: finds from one validated
// double collect, updates through applyRunLocked. Runs the slow runner
// for whatever remainder the leaf could not serve.
func (th *Thread) applyLeafRun(op batchOp, leaf uint64, run []batchEnt, vals, res []uint64, ok []bool) {
	if op == bFind {
		if !th.t.collectBatchFinds(leaf, run, res, ok) {
			th.runSlow(op, run, vals, res, ok)
		}
		return
	}
	consumed, _, _ := th.applyRunLocked(op, leaf, run, vals, res, ok)
	if consumed < len(run) {
		// Marked leaf: retry the whole run. Full leaf: the splitting
		// insert (inside the slow runner) restructures the leaf, so the
		// rest of the run re-descends there too.
		th.runSlow(op, run[consumed:], vals, res, ok)
	}
}

// runSlow is the churn path: an iterative per-leaf loop over the cached
// scan path, re-descending from the root whenever a leaf moved and
// handling splitting inserts via the per-key slow path (enter/exit
// nest; the retired leaf's slot cannot be recycled while this call's
// epoch section is open, so revalidating cached offsets stays safe —
// a stale node is at worst marked, never a different node).
func (th *Thread) runSlow(op batchOp, ents []batchEnt, vals, res []uint64, ok []bool) {
	t := th.t
	i := 0
	for i < len(ents) {
		leaf, bound, hasBound := th.searchScan(ents[i].K)
		j := batchkit.RunEnd(ents, i, bound, hasBound)
		if op == bFind {
			if !t.collectBatchFinds(leaf, ents[i:j], res, ok) {
				th.path.invalidate()
				continue // leaf was unlinked: re-descend to its replacement
			}
			i = j
			continue
		}
		consumed, marked, full := th.applyRunLocked(op, leaf, ents[i:j], vals, res, ok)
		i += consumed
		if marked {
			th.path.invalidate()
			continue
		}
		if full {
			e := ents[i]
			res[e.Idx], ok[e.Idx] = th.Insert(e.K, vals[e.Idx])
			i++
			th.path.invalidate() // the split restructured this neighborhood
		}
	}
}

// collectBatchFinds answers every staged key in run from one validated
// double collect of the leaf. ok is false if the leaf has been unlinked
// (the descent may have read a pointer to it before the unlink; frozen
// contents cannot be served).
func (t *Tree) collectBatchFinds(off uint64, run []batchEnt, vals []uint64, found []bool) bool {
	v := t.vn(off)
	spins := 0
	for {
		v1 := v.ver.Load()
		if v1&1 == 1 {
			t.crashCheck()
			abalg.SpinPause(&spins)
			continue
		}
		if v.marked.Load() {
			return false
		}
		for _, e := range run {
			var val uint64
			ok := false
			for i := 0; i < t.b; i++ {
				if t.leafKey(off, i) == e.K {
					val = t.leafVal(off, i)
					ok = true
					break
				}
			}
			vals[e.Idx] = val
			found[e.Idx] = ok
		}
		if v.ver.Load() == v1 {
			return true
		}
		t.crashCheck()
		abalg.SpinPause(&spins)
	}
}
