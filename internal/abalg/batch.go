package abalg

// Batched point operations: FindBatch/InsertBatch/DeleteBatch apply a
// whole key batch with the per-key semantics of Find/Insert/Delete while
// sharing the expensive per-operation work across the batch.
//
// The per-key operations pay a full root-to-leaf descent and (for
// updates) a lock acquisition per key. A batch is instead staged into
// the Thread's scratch and sorted by key (internal/batchkit's stable LSD
// radix, so equal keys keep input order), then driven down the tree by
// a level-synchronous partition descent. Its frontier holds, per node
// the batch reached, the node, the upper bound of its key range and the
// run of sorted keys routed to it. Each level takes two passes:
//
//  1. Touch every frontier node, requesting all of its cache lines.
//     The loads are independent, so their misses overlap: the level
//     costs about one miss, not one per node.
//  2. Classify each node with Kind. A leaf rides into the next level as
//     it is; an internal node's run is split among its children by
//     Branch, which reads the routing keys and child pointers of the
//     node alone, never the child it returns.
//
// The loop ends at the first level that holds only leaves. Leaves ride
// along in place, so that level lists them in key order even when a
// tagged node (a split's temporary extra level) put some of them one
// level deeper than the rest. Every internal node the batch touches is
// visited once, so the upper levels cost O(distinct nodes), not
// O(keys x height); and each key's path is read one level after another
// as in a per-key descent, only with the whole batch's reads of one
// level in flight together (group prefetching over a partition). Then
// each leaf's whole run, in key order, is
//
//   - answered from one validated double collect (finds), or
//   - applied under one lock acquisition (updates; each key still gets
//     its own version window, so every operation linearizes
//     individually — the batch is not atomic). On Elim trees the batched
//     path locks directly instead of trying to eliminate (elimination
//     targets cross-thread same-key contention, which a sorted
//     single-thread batch does not exhibit); each key's version window
//     still publishes its record. On a persistent store every key gets
//     the per-key flush discipline and durability point.
//
// When a leaf cannot serve its run — it was unlinked after the descent
// reached it, or it fills mid-run so a key needs the splitting insert —
// that key goes through the per-key Insert (ops.go) and the rest of the
// run, a span of the staged batch, goes on a leftover list in the
// Thread's scratch. The spans are in key order, as the leaves are; the
// next round partitions them again from the root. Leaves move rarely,
// so nearly every batch takes one round. A long run that keeps filling
// its leaf (an ascending bulk insert) takes a round per split, each a
// descent that RunEnd's galloping search keeps logarithmic in the run.
//
// Results land at each staged key's input index, so the caller sees
// input order. Equal keys apply in input order; distinct keys commute.
// Hence a batch's results always match the per-key loop (the
// differential tests pin this); internal/dict.Batcher states the
// cross-structure contract. A caller that has already staged and
// sorted a batch hands it to ApplyStaged directly: internal/shard
// stages a batch once and gives each shard its run. All staging lives
// in per-Thread scratch: steady-state batched operations allocate
// nothing (TestAllocsBatchOps).

import "repro/internal/batchkit"

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i]. Like Find it takes no locks.
func FindBatch[R comparable](s Store[R], keys, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("abtree: FindBatch result slices must match len(keys)")
	}
	ApplyStaged(s, batchkit.Find, stage(s, keys), nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent, storing each
// key's previous value and whether it was inserted into prev[i] and
// inserted[i]. Each leaf's run applies under one lock acquisition; a
// leaf that fills mid-run falls back to the per-key splitting insert for
// the key that needed the split.
func InsertBatch[R comparable](s Store[R], keys, vals, prev []uint64, inserted []bool) {
	if len(vals) != len(keys) || len(prev) != len(keys) || len(inserted) != len(keys) {
		panic("abtree: InsertBatch result slices must match len(keys)")
	}
	ApplyStaged(s, batchkit.Insert, stage(s, keys), vals, prev, inserted)
}

// DeleteBatch removes every present keys[i], storing its value and
// whether it was present into prev[i] and deleted[i]. Each leaf's run
// applies under one lock acquisition; if a run leaves its leaf underfull
// the rebalance runs once per leaf, after the lock is released — the
// same repair the per-key path would have triggered, batched.
func DeleteBatch[R comparable](s Store[R], keys, prev []uint64, deleted []bool) {
	if len(prev) != len(keys) || len(deleted) != len(keys) {
		panic("abtree: DeleteBatch result slices must match len(keys)")
	}
	ApplyStaged(s, batchkit.Delete, stage(s, keys), nil, prev, deleted)
}

// stage copies keys into the Thread's scratch, sorted by key with equal
// keys in input order.
func stage[R comparable](s Store[R], keys []uint64) []batchkit.Ent {
	sc := s.Scratch()
	ents := sc.ents[:0]
	for i, k := range keys {
		ents = append(ents, batchkit.Ent{K: k, Idx: i})
	}
	sc.ents, sc.tmp = batchkit.Sort(ents, sc.tmp)
	return sc.ents
}

// ApplyStaged applies op to every entry of ents, which must be sorted by
// key with equal keys in input order: each result lands at its entry's
// Idx in res and ok, and an insert's value is vals[Idx]
// (dict.StagedBatcher). It runs the level loop in rounds, the first over
// all of ents, each next one over what the last one's leaves left over.
func ApplyStaged[R comparable](s Store[R], op batchkit.Op, ents []batchkit.Ent, vals, res []uint64, ok []bool) {
	if len(ents) == 0 {
		return
	}
	CheckKey(ents[0].K) // sorted: a reserved key sits at one end
	CheckKey(ents[len(ents)-1].K)
	a, _ := s.Degree()
	b := batch[R]{s, s.Scratch(), op, vals, res, ok, a}
	b.sc.left = append(b.sc.left[:0], hop[R]{s.Entry(), unbounded, 0, len(ents)})
	for len(b.sc.left) > 0 {
		b.round(ents)
	}
}

// batch is one batched operation in flight: the store, the Thread's
// scratch, the operation, the caller's value slice (inserts; nil
// otherwise) and its result slices, and the tree's minimum node size.
type batch[R comparable] struct {
	s    Store[R]
	sc   *Scratch[R]
	op   batchkit.Op
	vals []uint64
	res  []uint64
	ok   []bool
	a    int
}

// hop is one entry of the batch descent's frontier: a node the batch
// reached, the upper bound of its key range, and the run ents[i:j] of
// staged keys routed to it.
type hop[R comparable] struct {
	n    R
	hi   uint64
	i, j int
}

// round drives the leftover spans of ents down from the entry one level
// at a time (see the file comment) and serves the leaves it ends at in
// key order, which refills the leftover list. The frontier's two slices
// live in the scratch, so a warmed-up Thread descends without
// allocating.
func (b *batch[R]) round(ents []batchkit.Ent) {
	s, sc := b.s, b.sc
	level := append(sc.level[:0], sc.left...)
	sc.left = sc.left[:0]
	next := sc.next
	for inner := true; inner; {
		for _, h := range level {
			s.Touch(h.n)
		}
		next, inner = next[:0], false
		for _, h := range level {
			if s.Kind(h.n) == LeafKind {
				next = append(next, h)
				continue
			}
			inner = true
			run := ents[:h.j]
			for i := h.i; i < h.j; {
				c, _, _, chi := s.Branch(h.n, run[i].K, 0, h.hi)
				j := batchkit.RunEnd(run, i, chi)
				next = append(next, hop[R]{c, chi, i, j})
				i = j
			}
		}
		level, next = next, level
	}
	sc.level, sc.next = level, next
	for _, h := range level {
		b.serve(h, ents[h.i:h.j])
	}
}

// serve serves the run of the leaf h reached: finds from one validated
// double collect, updates through applyLocked. What the leaf did not
// serve goes on the leftover list.
func (b *batch[R]) serve(h hop[R], run []batchkit.Ent) {
	served := 0
	if b.op != batchkit.Find {
		served = b.applyLocked(h.n, run)
	} else if b.find(h.n, run) {
		served = len(run)
	}
	if h.i+served < h.j {
		b.sc.left = append(b.sc.left, hop[R]{b.s.Entry(), unbounded, h.i + served, h.j})
	}
}

// find answers every staged key in run from one validated double collect
// of the leaf's pairs in the run's key span; false if the leaf has been
// unlinked (see collect). The collect, at most b pairs, stages in the
// structural scratch: nothing else stages there before the answers are
// out, whereas a scan callback may be iterating the scan buffer.
func (b *batch[R]) find(leaf R, run []batchkit.Ent) bool {
	items, ok := collect(b.s, leaf, b.sc.Items[:0], latest, run[0].K, run[len(run)-1].K)
	if !ok {
		return false
	}
	j := 0
	for _, e := range run {
		for j < len(items) && items[j].K < e.K {
			j++
		}
		b.res[e.Idx], b.ok[e.Idx] = 0, false
		if j < len(items) && items[j].K == e.K {
			b.res[e.Idx], b.ok[e.Idx] = items[j].V, true
		}
	}
	return true
}

// applyLocked applies run's keys to the leaf under one lock acquisition,
// through the per-key locked writes, and returns how many keys it
// served: none if the leaf was marked; if an insert found it full, the
// keys before that one and, through the per-key splitting insert after
// unlocking, that one. After unlocking it triggers the underfull repair
// exactly like the per-key delete path.
func (b *batch[R]) applyLocked(leaf R, run []batchkit.Ent) (served int) {
	Lock(b.s, leaf)
	size, full, marked := 0, false, false
	for ; served < len(run); served++ {
		e := run[served]
		if b.op == batchkit.Insert {
			b.res[e.Idx], b.ok[e.Idx], full, marked = b.s.PutLocked(leaf, e.K, b.vals[e.Idx], false)
		} else {
			b.res[e.Idx], b.ok[e.Idx], size, marked = b.s.DeleteLocked(leaf, e.K)
		}
		if full || marked {
			break
		}
	}
	b.s.UnlockAll()
	switch {
	case full:
		e := run[served]
		b.res[e.Idx], b.ok[e.Idx] = Insert(b.s, e.K, b.vals[e.Idx])
		served++
	case !marked && b.op == batchkit.Delete && size < b.a:
		FixUnderfull(b.s, leaf)
	}
	return served
}
