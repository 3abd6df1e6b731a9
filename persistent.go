package abtree

import (
	"repro/internal/pabtree"
	"repro/internal/pmem"
)

// PersistentTree is a durably linearizable p-OCC-ABtree or p-Elim-ABtree
// (paper §5) backed by a simulated persistent-memory arena. Every
// completed insert or delete is durable when the operation returns; a
// crash (power loss) loses at most the effects of operations that were
// still in flight, and each of those either happened entirely or not at
// all (strict linearizability).
//
// Because Go cannot place live objects on real NVDIMMs, the arena is a
// simulation with explicit flush/fence/crash semantics (see
// internal/pmem); the tree algorithms — flush schedule, link-and-persist
// pointer publication, recovery — are exactly the paper's.
type PersistentTree struct {
	t    *pabtree.Tree
	elim bool
	a, b int
}

// PersistentHandle is the per-goroutine accessor for a PersistentTree.
type PersistentHandle struct {
	th *pabtree.Thread
}

// PersistentOption configures a persistent tree.
type PersistentOption func(*poptions)

type poptions struct {
	a, b       int
	arenaWords uint64
}

// WithPersistentDegree sets the (a,b) bounds; 2 <= a <= b/2, 4 <= b <= 11.
func WithPersistentDegree(a, b int) PersistentOption {
	return func(o *poptions) { o.a, o.b = a, b }
}

// WithArenaWords sets the simulated PM capacity in 64-bit words (default
// 1<<24 words = 128 MiB, roughly 700k node slots of pabtree.NodeWords
// each).
func WithArenaWords(words uint64) PersistentOption {
	return func(o *poptions) { o.arenaWords = words }
}

func buildPersistent(elim bool, opts []PersistentOption) *PersistentTree {
	o := poptions{a: 2, b: 11, arenaWords: 1 << 24}
	for _, f := range opts {
		f(&o)
	}
	arena := pmem.New(int(o.arenaWords))
	popts := []pabtree.Option{pabtree.WithDegree(o.a, o.b)}
	if elim {
		popts = append(popts, pabtree.WithElimination())
	}
	return &PersistentTree{t: pabtree.New(arena, popts...), elim: elim, a: o.a, b: o.b}
}

// NewPersistent returns an empty p-OCC-ABtree on a fresh simulated arena.
func NewPersistent(opts ...PersistentOption) *PersistentTree {
	return buildPersistent(false, opts)
}

// NewPersistentElim returns an empty p-Elim-ABtree.
func NewPersistentElim(opts ...PersistentOption) *PersistentTree {
	return buildPersistent(true, opts)
}

// NewHandle returns a per-goroutine accessor.
func (t *PersistentTree) NewHandle() *PersistentHandle {
	return &PersistentHandle{th: t.t.NewThread()}
}

// Find returns the value associated with key, if present.
func (h *PersistentHandle) Find(key uint64) (uint64, bool) { return h.th.Find(key) }

// Insert inserts <key, val> if absent; the insert is durable when Insert
// returns. If key is present it returns the existing value and false.
func (h *PersistentHandle) Insert(key, val uint64) (uint64, bool) { return h.th.Insert(key, val) }

// Delete removes key if present; the delete is durable when Delete
// returns.
func (h *PersistentHandle) Delete(key uint64) (uint64, bool) { return h.th.Delete(key) }

// Upsert sets key's value to val, inserting if absent; durable on return.
func (h *PersistentHandle) Upsert(key, val uint64) { h.th.Upsert(key, val) }

// FindBatch looks up every keys[i] (see Handle.FindBatch for the
// batched-operation contract).
func (h *PersistentHandle) FindBatch(keys, vals []uint64, found []bool) {
	h.th.FindBatch(keys, vals, found)
}

// InsertBatch inserts every absent keys[i] under shared per-leaf lock
// acquisitions (see Handle.InsertBatch). Each insert is individually
// durable when the batch returns, with the per-key flush discipline.
func (h *PersistentHandle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	h.th.InsertBatch(keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i] (see Handle.DeleteBatch);
// each delete is individually durable when the batch returns.
func (h *PersistentHandle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	h.th.DeleteBatch(keys, prev, deleted)
}

// Range calls fn for each pair with lo <= key <= hi in ascending order,
// stopping early if fn returns false. Per-leaf atomic (see Handle.Range).
func (h *PersistentHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	h.th.Range(lo, hi, fn)
}

// RangeSnapshot calls fn for each pair with lo <= key <= hi in ascending
// order, stopping early if fn returns false. The reported pairs are one
// atomic snapshot of the whole interval (see Handle.RangeSnapshot); the
// snapshot machinery is volatile and does not affect what is durable.
func (h *PersistentHandle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	h.th.RangeSnapshot(lo, hi, fn)
}

// RQStats reports how many RangeSnapshot queries have run and how many
// superseded leaf versions updates preserved for them.
func (t *PersistentTree) RQStats() (scans, versions uint64) { return t.t.RQStats() }

// SimulateCrash models power loss: every line of simulated PM that was
// written but not yet flushed is lost, except that each dirty line
// independently survives with probability evictProb (real caches may have
// evicted it before the failure). The tree must not be used afterwards;
// call Recover to obtain the post-crash tree.
//
// No operation may be running concurrently with SimulateCrash.
func (t *PersistentTree) SimulateCrash(evictProb float64, seed uint64) {
	t.t.Arena().Crash(evictProb, seed)
}

// Recover rebuilds the tree from the persisted image after SimulateCrash,
// running the paper's recovery procedure (reset volatile fields, strip
// link-and-persist marks, complete interrupted rebalancing). The returned
// tree contains exactly the durably linearized operations.
func (t *PersistentTree) Recover() *PersistentTree {
	popts := []pabtree.Option{pabtree.WithDegree(t.a, t.b)}
	if t.elim {
		popts = append(popts, pabtree.WithElimination())
	}
	return &PersistentTree{
		t:    pabtree.Recover(t.t.Arena(), popts...),
		elim: t.elim, a: t.a, b: t.b,
	}
}

// FlushStats reports how many cache-line flushes and fences the tree has
// issued — the quantities the paper minimizes (§5, Table 1 discussion).
func (t *PersistentTree) FlushStats() (flushes, fences uint64) {
	s := t.t.Arena().Stats()
	return s.Flushes, s.Fences
}

// Len returns the number of keys (quiescent only).
func (t *PersistentTree) Len() int { return t.t.Len() }

// KeySum returns the wrapping key sum (quiescent only).
func (t *PersistentTree) KeySum() uint64 { return t.t.KeySum() }

// Scan calls fn for every pair in ascending key order (quiescent only).
func (t *PersistentTree) Scan(fn func(k, v uint64)) { t.t.Scan(fn) }

// Validate checks the structural invariants (Theorem 5.4), quiescent only.
func (t *PersistentTree) Validate() error { return t.t.Validate() }
