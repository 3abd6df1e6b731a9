// Package abalg is the cold half of the paper's relaxed (a,b)-tree,
// written once for every node store: the structural updates (splitting
// insert, fixTagged, fixUnderfull with its distribute and merge, and the
// range-query history the replacement leaves inherit) and the quiescent
// inspection walks (Validate, Scan, Stats, ...).
//
// The algorithms are generic over a node reference R — a *node on the Go
// heap in internal/core, a uint64 arena offset in internal/pabtree — and
// reach nodes only through the Store seam, which each package's *Thread
// implements. The paper presents its durable trees (§5) as the volatile
// ones "with persistence additions"; the seam is where the additions
// live: NewLeaf/NewInternal flush what they build, SetChild is an atomic
// store or link-and-persist, Unlink also hands the slot to epoch
// reclamation, Pause also observes an injected crash.
//
// The seam is coarse on purpose: one dynamic call per node visited, never
// one per slot. A split runs once per ~8 inserts into a growing tree and
// the fix-ups on under 1 % of steady-state operations, so the dispatch is
// invisible there, whereas a per-slot accessor interface under the
// per-operation descent measured 14-25 % slower (EXPERIMENTS.md, "One
// rebalancer"). The per-operation paths — search, the leaf reads, the
// locked leaf writes, batches and scans — therefore stay concrete in each
// store's package.
package abalg

import (
	"runtime"

	"repro/internal/rq"
)

const (
	// MaxCap is the compile-time capacity of a node: the paper's b = 11.
	// Both stores size their layouts, and Scratch its buffers, by it.
	MaxCap = 11

	// MaxHeld is the most node locks an operation holds at once:
	// fixUnderfull locks the node, its sibling, parent and grandparent.
	MaxHeld = 4
)

// Kind says what a node is. The values are part of internal/pabtree's
// persisted node format (the low byte of the meta word).
type Kind uint8

const (
	LeafKind Kind = iota
	InternalKind
	// TaggedKind marks a TaggedInternal node: a temporary height imbalance
	// created by a splitting insert (or by FixTagged's split case), always
	// with exactly two children, removed by FixTagged.
	TaggedKind
)

// Path is the result of a search: the node reached, its parent and
// grandparent, and the child indices along the way (paper Figure 1). The
// zero R means "none": GP is none if P is the entry or N is the root.
type Path[R comparable] struct {
	GP, P, N   R
	PIdx, NIdx int // index of P in GP, of N in P
}

// Scratch is the staging a structural update builds replacement nodes
// from. It lives in the Thread, not on the caller's stack: slices passed
// through the seam escape, so stack arrays would be heap-allocated per
// call. (The price: a staged *node takes a write barrier while the
// collector is marking, which a stack slot did not.) Each buffer holds
// two nodes' worth, the most any step gathers.
type Scratch[R comparable] struct {
	Items    [2 * MaxCap]rq.Pair
	Keys     [2 * MaxCap]uint64
	Children [2 * MaxCap]R
}

// Store is the node-store seam. All methods taking a node require what
// the paper's pseudocode requires at that point: reads of Size, Child,
// GatherLeaf and LeafState are stable only under the node's lock (or at
// quiescence); Kind, RoutingKey and SearchKey are immutable.
type Store[R comparable] interface {
	// Degree returns the (a,b) bounds; Entry the sentinel above the root,
	// an internal node with one child that is never replaced.
	Degree() (a, b int)
	Entry() R

	Kind(n R) Kind
	// Size is a node's occupancy in the (a,b) sense: key count for a
	// leaf, child count for an internal node (which then has Size-1
	// routing keys).
	Size(n R) int
	RoutingKey(n R, i int) uint64
	Child(n R, i int) R
	// SearchKey is the immutable key FixTagged/FixUnderfull re-locate n
	// by: the search path for a key in n's range passes through n if n
	// is reachable (paper Def. 3.3/3.4).
	SearchKey(n R) uint64
	// GatherLeaf appends the leaf's pairs to items and returns the
	// whole of items sorted by key. GatherInternal appends an internal
	// node's children and routing keys, in order.
	GatherLeaf(leaf R, items []rq.Pair) []rq.Pair
	GatherInternal(n R, children []R, keys []uint64) ([]R, []uint64)

	// Search descends lock-free from the entry toward key, stopping at a
	// leaf or at target, whichever comes first (paper Figure 2).
	Search(key uint64, target R) Path[R]

	// Lock blocks until n's lock is held. Callers lock bottom-to-top,
	// ties left-to-right (deadlock freedom, §3.3.5); UnlockAll releases
	// everything this Thread holds.
	Lock(n R)
	UnlockAll()
	Marked(n R) bool
	// Unlink marks n as removed from the tree — once, never cleared, by
	// the holder of n's lock after the pointer that reached n was
	// replaced — and releases its storage when no traversal can still
	// hold it (the garbage collector; epoch reclamation for arena slots).
	Unlink(n R)

	// BumpVer increments the leaf's version: to odd opens its version
	// window, to even closes it. LeafState is the range-query stamp and
	// chain the window protects; RQ the tree's range-query provider.
	BumpVer(leaf R)
	LeafState(leaf R) *rq.LeafState
	RQ() *rq.Provider

	// NewLeaf and NewInternal build an unpublished node (durable, for a
	// persistent store, before they return). len(children) must be
	// len(keys)+1. searchKey is the lower bound of the node's key range:
	// the one key known to be in range without reading the node, which
	// is what lets recovery recompute it. Validate checks the rule.
	NewLeaf(items []rq.Pair, searchKey uint64) R
	NewInternal(k Kind, keys []uint64, children []R, searchKey uint64) R
	// SetChild publishes c as child i of the locked node p; the update
	// linearizes (and, for a persistent store, becomes durable) here.
	SetChild(p R, i int, c R)

	// Pause cedes the processor inside a retry loop that waits for
	// another thread's structural fix.
	Pause()
	Scratch() *Scratch[R]
}

// CheckKey panics on the two reserved keys.
func CheckKey(key uint64) {
	if key == 0 {
		panic("abtree: key 0 is reserved as the empty sentinel")
	}
	if key == ^uint64(0) {
		panic("abtree: key 2^64-1 is reserved as the key-range upper bound")
	}
}

// SpinPause backs off a busy-wait loop, yielding the processor
// periodically so lock/version holders preempted by the Go scheduler can
// make progress.
func SpinPause(spins *int) {
	*spins++
	if *spins%32 == 0 {
		runtime.Gosched()
	}
}
