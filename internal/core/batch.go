package core

// Batched point operations: FindBatch/InsertBatch/DeleteBatch apply a
// whole key batch with the per-key semantics of Find/Insert/Delete
// while sharing the expensive per-operation work across the batch.
//
// The per-key operations pay a full root-to-leaf descent and (for
// updates) a lock acquisition per key. A batch is instead staged into
// the Thread's scratch and sorted by key (internal/batchkit's stable
// LSD radix, so equal keys keep input order), then driven down the
// tree by a partition descent: every internal node the batch touches
// is visited once, its sorted run split among its children by the
// immutable routing keys — so the upper levels cost O(distinct nodes),
// not O(keys x height). At each leaf the whole run is
//
//   - answered from one validated double collect (finds), or
//   - applied under one lock acquisition (updates; each key still gets
//     its own version window, so every operation linearizes
//     individually — the batch is not atomic).
//
// When a leaf cannot serve its run — it was unlinked under the descent,
// or fills up mid-run so a key needs the splitting insert — the run's
// remainder is retried through the slow runner, an iterative loop that
// re-descends per leaf through the Thread's cached scan path (range.go)
// and handles splits via the per-key slow path. Leaves move rarely, so
// the partition descent is the common case and the slow runner the
// churn case.
//
// Results are scattered back through each staged key's input index, so
// the caller sees input order. Equal keys apply in input order;
// distinct keys commute. Hence a batch's results always match the
// per-key loop (the differential tests pin this). All staging lives in
// per-Thread scratch: steady-state batched operations allocate nothing
// (TestAllocsBatchOps).

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
// its presence into found[i] (dict.Batcher; see the file comment for
// the batched-operation contract). Like Find it takes no locks.
func (th *Thread) FindBatch(keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("core: FindBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runSubtree(bFind, th.t.entry, th.orderBatch(keys), nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher;
// see the file comment for the batched-operation contract). Each leaf's
// run applies under one lock acquisition; a leaf that fills mid-run
// falls back to the per-key splitting insert for the key that needed
// the split. On Elim-ABtrees the batched path locks directly instead of
// trying to eliminate (elimination targets cross-thread same-key
// contention, which a sorted single-thread batch does not exhibit); each
// key's version window still publishes its record.
func (th *Thread) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("core: InsertBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runSubtree(bInsert, th.t.entry, th.orderBatch(keys), vals, prev, inserted)
}

// DeleteBatch removes every present keys[i] (dict.Batcher; see the file
// comment for the batched-operation contract). Each leaf's run applies
// under one lock acquisition; if a run leaves its leaf underfull the
// rebalance runs once per leaf, after the lock is released — the same
// repair the per-key path would have triggered, batched.
func (th *Thread) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("core: DeleteBatch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	th.runSubtree(bDelete, th.t.entry, th.orderBatch(keys), nil, prev, deleted)
}

// runSubtree drives one sorted run down the subtree at n, splitting it
// among children by the immutable routing keys so every node the batch
// touches is visited exactly once. Single-child segments descend
// iteratively (the whole run usually funnels through the top levels);
// multi-child partitions recurse, bounded by the tree height. vals is
// the caller's value slice (inserts; nil otherwise), res/ok the result
// slices.
func (th *Thread) runSubtree(op batchOp, n *node, run []batchEnt, vals, res []uint64, ok []bool) {
	for {
		if n.isLeaf() {
			th.applyLeafRun(op, n, run, vals, res, ok)
			return
		}
		rk := n.routingKeys()
		ptrs := &n.inner().ptrs
		i := 0
		for c := 0; c <= rk && i < len(run); c++ {
			end := len(run)
			if c < rk {
				b := n.keys[c].Load()
				end = i
				for end < len(run) && run[end].K < b {
					end++
				}
			}
			if end == i {
				continue // no keys for this child: skip its pointer load
			}
			child := ptrs[c].Load()
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

// applyRunLocked applies run's keys to the leaf under one lock
// acquisition, one version window per key. It reports how many staged
// keys it consumed and why it stopped: the leaf was marked (retry the
// whole run elsewhere), or an insert found it full (consumed keys are
// done; run[consumed] needs the splitting insert). After unlocking it
// triggers the underfull repair exactly like the per-key delete path.
func (th *Thread) applyRunLocked(op batchOp, leaf *node, run []batchEnt, vals, res []uint64, ok []bool) (consumed int, marked, full bool) {
	t := th.t
	th.Lock(leaf)
	if leaf.isMarked() {
		th.UnlockAll()
		return 0, true, false
	}
	i := 0
	for i < len(run) {
		e := run[i]
		if op == bInsert {
			done, old, ins := t.insertLocked(leaf, e.K, vals[e.Idx])
			if !done {
				full = true
				break
			}
			res[e.Idx], ok[e.Idx] = old, ins
		} else {
			res[e.Idx], ok[e.Idx], _ = t.deleteLocked(leaf, e.K)
		}
		i++
	}
	newSize := leaf.size()
	th.UnlockAll()
	if op == bDelete && newSize < t.a {
		abalg.FixUnderfull(th, leaf)
	}
	return i, false, full
}

// applyLeafRun serves one leaf's whole run: finds from one validated
// double collect, updates through applyRunLocked. Runs the slow runner
// for whatever remainder the leaf could not serve (unlinked leaf, or a
// full leaf needing a splitting insert).
func (th *Thread) applyLeafRun(op batchOp, leaf *node, run []batchEnt, vals, res []uint64, ok []bool) {
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

// runSlow is the churn path: an iterative per-leaf loop that re-locates
// each staged key through the Thread's cached scan path (range.go),
// re-descending from the root whenever a leaf moved, and handling
// splitting inserts via the per-key slow path. It serves the run
// remainders the partition descent could not.
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
		}
	}
}

// collectBatchFinds answers every staged key in run from one validated
// double collect of the leaf. ok is false if the leaf has been unlinked
// (the descent may have read a pointer to it before the unlink, so the
// frozen contents cannot be served — same rule as snapshotLeaf).
func (t *Tree) collectBatchFinds(n *node, run []batchEnt, vals []uint64, found []bool) bool {
	l := n.leaf()
	spins := 0
	for {
		v1 := l.ver.Load()
		if v1&1 == 1 {
			abalg.SpinPause(&spins)
			continue
		}
		if l.isMarked() {
			return false
		}
		for _, e := range run {
			vals[e.Idx], found[e.Idx] = l.valAt(t.slotOf(l, e.K))
		}
		if l.ver.Load() == v1 {
			return true
		}
		abalg.SpinPause(&spins)
	}
}
