// Package abtree is the public API of this repository: concurrent ordered
// dictionaries reproducing "Elimination (a,b)-trees with fast, durable
// updates" (Srivastava & Brown, PPoPP 2022).
//
// Four dictionaries are provided:
//
//   - New            — the OCC-ABtree (paper §3): optimistic concurrency
//     control over a relaxed (a,b)-tree; lock-free searches, fine-grained
//     versioned node locks for updates.
//   - NewElim        — the Elim-ABtree (§4): adds publishing elimination,
//     which makes concurrent inserts/deletes of the same key linearize
//     against a published record instead of writing to the tree. Fastest
//     under skewed (high-contention) update-heavy workloads.
//   - NewPersistent  — the p-OCC-ABtree (§5): durably linearizable on a
//     simulated persistent-memory arena.
//   - NewPersistentElim — the p-Elim-ABtree.
//
// Keys and values are uint64. Key 0 and key 2^64-1 are reserved (the
// empty-slot sentinel and the key-range upper bound). Insert is
// insert-if-absent: it never overwrites an existing value.
//
// All operations go through a per-goroutine Handle obtained from
// NewHandle; a Handle must not be shared between goroutines (it records
// the locks its operation holds and stages its structural updates,
// mirroring the paper's per-thread state).
//
// Quickstart:
//
//	t := abtree.NewElim()
//	h := t.NewHandle()
//	h.Insert(42, 1)
//	v, ok := h.Find(42)
//	h.Delete(42)
package abtree

import (
	"repro/internal/core"
)

// Handle is a per-goroutine accessor for a Tree. Handles are not safe for
// concurrent use; create one per worker goroutine.
type Handle struct {
	th *core.Thread
}

// Tree is a volatile OCC-ABtree or Elim-ABtree. A Tree is safe for
// concurrent use through per-goroutine Handles.
type Tree struct {
	t *core.Tree
}

// Option configures a volatile tree.
type Option func(*options)

type options struct {
	a, b int
}

// WithDegree sets the (a,b) node-size bounds; the paper (and default) is
// a=2, b=11. Requires 2 <= a <= b/2 and 4 <= b <= 11 (the nodes are
// laid out for the paper's b); New panics otherwise.
func WithDegree(a, b int) Option { return func(o *options) { o.a, o.b = a, b } }

// coreOpts translates the public options into the tree's construction
// options; elim selects the Elim-ABtree.
func coreOpts(opts []Option, elim bool) []core.Option {
	o := options{a: core.DefaultMinSize, b: core.DefaultMaxSize}
	for _, f := range opts {
		f(&o)
	}
	co := []core.Option{core.WithDegree(o.a, o.b)}
	if elim {
		co = append(co, core.WithElimination())
	}
	return co
}

// New returns an empty OCC-ABtree.
func New(opts ...Option) *Tree {
	return &Tree{t: core.New(coreOpts(opts, false)...)}
}

// NewElim returns an empty Elim-ABtree (publishing elimination enabled).
func NewElim(opts ...Option) *Tree {
	return &Tree{t: core.New(coreOpts(opts, true)...)}
}

// NewHandle returns a new per-goroutine accessor.
func (t *Tree) NewHandle() *Handle { return &Handle{th: t.t.NewThread()} }

// Find returns the value associated with key, if present. Finds take no
// locks and never restart from the root.
func (h *Handle) Find(key uint64) (uint64, bool) { return h.th.Find(key) }

// Insert inserts <key, val> if key is absent, returning (0, true). If key
// is present the tree is unchanged and Insert returns the existing value
// and false.
func (h *Handle) Insert(key, val uint64) (uint64, bool) { return h.th.Insert(key, val) }

// Delete removes key if present, returning its value and true; otherwise
// (0, false).
func (h *Handle) Delete(key uint64) (uint64, bool) { return h.th.Delete(key) }

// Len returns the number of keys. It requires the tree to be quiescent
// (no concurrent operations) and is intended for accounting and tests.
func (t *Tree) Len() int { return t.t.Len() }

// KeySum returns the wrapping sum of all keys (the paper's §6 validation
// scheme). Quiescent only.
func (t *Tree) KeySum() uint64 { return t.t.KeySum() }

// Scan calls fn for every pair in ascending key order. Quiescent only.
func (t *Tree) Scan(fn func(k, v uint64)) { t.t.Scan(fn) }

// Height returns the tree height (levels below the entry node).
// Quiescent only.
func (t *Tree) Height() int { return t.t.Height() }

// Validate checks the structural invariants (paper Theorem 3.5) and
// returns the first violation. Quiescent only.
func (t *Tree) Validate() error { return t.t.Validate() }

// ElimStats reports how many inserts, deletes and upserts completed via
// publishing elimination — linearizing against another operation's
// published record instead of writing to the tree (always zero for trees
// built with New).
func (t *Tree) ElimStats() (inserts, deletes, upserts uint64) { return t.t.ElimStats() }

// Upsert sets key's value to val, inserting the key if absent (the §7
// replace-style insert; composes with publishing elimination).
func (h *Handle) Upsert(key, val uint64) { h.th.Upsert(key, val) }

// Range calls fn for each pair with lo <= key <= hi, in ascending order,
// stopping early if fn returns false. Each leaf's contribution is an
// atomic snapshot; the scan as a whole is not a single atomic snapshot.
// It is the cheaper of the two scans: it never creates leaf versions.
// For a fully linearizable scan use RangeSnapshot. Safe to call
// concurrently with updates. fn may run point operations on this handle
// but must not start another scan on it (scans reuse per-handle scratch
// so that, warmed up, they allocate nothing).
func (h *Handle) Range(lo, hi uint64, fn func(k, v uint64) bool) { h.th.Range(lo, hi, fn) }

// RangeSnapshot calls fn for each pair with lo <= key <= hi, in
// ascending order, stopping early if fn returns false. The reported
// pairs are one atomic snapshot of the whole interval: the query
// linearizes at the moment it draws its timestamp (the epoch-based
// technique the paper's §3 points to; see internal/rq). Point
// operations never wait for scans; while scans are in flight,
// conflicting updates preserve superseded leaf states on short version
// chains for them (recycled through a pool once no scan can need them),
// and leaves that replace others in splits and merges link the replaced
// leaves' chains instead of copying them.
// Safe to call concurrently with updates. fn may run point operations
// on this handle but must not start another scan on it.
func (h *Handle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	h.th.RangeSnapshot(lo, hi, fn)
}

// RQStats reports how many RangeSnapshot queries have run against the
// tree and how many superseded leaf versions updates preserved for them
// (both zero on scan-free workloads, whose updates skip the machinery).
func (t *Tree) RQStats() (scans, versions uint64) { return t.t.RQStats() }

// FindBatch looks up every keys[i], storing the value into vals[i] and
// its presence into found[i]; the result slices must match len(keys).
// The batch is sorted into per-leaf runs internally, descending once
// per distinct node and answering each leaf's run from one validated
// collect, so a MultiGet of nearby keys costs far less than the
// per-key loop — results land in input order regardless. Each lookup
// is individually linearizable; the batch as a whole is not atomic.
func (h *Handle) FindBatch(keys, vals []uint64, found []bool) { h.th.FindBatch(keys, vals, found) }

// InsertBatch inserts <keys[i], vals[i]> where keys[i] is absent
// (inserted[i] = true); where present, the tree is unchanged and
// prev[i] holds the existing value. Each leaf's run applies under one
// lock acquisition; every insert linearizes individually (the batch is
// not atomic), and equal keys apply in input order.
func (h *Handle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	h.th.InsertBatch(keys, vals, prev, inserted)
}

// DeleteBatch removes every present keys[i], storing the removed value
// into prev[i] (deleted[i] = true). Same contract as InsertBatch.
func (h *Handle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	h.th.DeleteBatch(keys, prev, deleted)
}
