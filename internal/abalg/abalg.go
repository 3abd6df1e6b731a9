// Package abalg is the paper's relaxed (a,b)-tree written once for every
// node store, apart from the per-key operations: the structural updates
// (splitting insert, fixTagged, fixUnderfull with its distribute and
// merge, and the range-query history the replacement leaves inherit),
// range scans and snapshot scans (scan.go), batched point operations
// (batch.go) and the quiescent inspection walks (Validate, Scan, Stats,
// ...).
//
// The algorithms are generic over a node reference R — a *node on the Go
// heap in internal/core, a uint64 arena offset in internal/pabtree — and
// reach nodes only through the Store seam, which each package's *Thread
// implements. The paper presents its durable trees (§5) as the volatile
// ones "with persistence additions"; the seam is where the additions
// live: NewLeaf/NewInternal flush what they build, SetChild is an atomic
// store or link-and-persist, Unlink also hands the slot to epoch
// reclamation, Pause and AppendLeaf also observe an injected crash, and
// ApplyRun writes a leaf with the store's flush discipline.
//
// The seam is coarse on purpose: one dynamic call per node visited, never
// one per slot. A split runs once per ~8 inserts into a growing tree and
// the fix-ups on under 1 % of steady-state operations, so the dispatch is
// invisible there, whereas a per-slot accessor interface under the
// per-operation descent measured 14-25 % slower (EXPERIMENTS.md, "One
// rebalancer"). Scans and batches pay a few calls per node or leaf they
// visit (Route, AppendLeaf, ApplyRun) against a leaf's
// worth of slots each (EXPERIMENTS.md, "Scans and batches through the
// seam"). The per-key paths — search, the leaf reads, the locked leaf
// writes and elimination — stay concrete in each store's package.
package abalg

import (
	"runtime"

	"repro/internal/batchkit"
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

// Scratch is a Thread's staging for the shared algorithms. It lives in
// the Thread, not on the caller's stack: slices passed through the seam
// escape, so stack arrays would be heap-allocated per call. (The price: a
// staged *node takes a write barrier while the collector is marking,
// which a stack slot did not.) Items, Keys and Children are what a
// structural update builds replacement nodes from, each two nodes' worth,
// the most any step gathers; the rest is the scan and batch engines'
// state, kept so that a warmed-up Thread scans and batches without
// allocating.
type Scratch[R comparable] struct {
	Items    [2 * MaxCap]rq.Pair
	Keys     [2 * MaxCap]uint64
	Children [2 * MaxCap]R

	path      scanPath[R]    // the cached descent (scan.go)
	pairs     []rq.Pair      // per-leaf collects append here (scan.go)
	ents, tmp []batchkit.Ent // the sorted batch and the sort's spare (batch.go)
	scanner   *rq.Scanner    // the RangeSnapshot registration, made on first use

	// NoScanCache makes every scan and batch hop re-descend from the
	// root, bypassing the cached path (differential tests only).
	NoScanCache bool
}

// ResetPath empties the cached scan path, so the next hop descends from
// the root. A store whose node references can be recycled (pabtree's
// epoch-managed slots) calls it on entry to every scan and batch: a
// cached reference is only meaningful inside the critical section it was
// read in.
func (sc *Scratch[R]) ResetPath() { sc.path.depth = 0 }

// Store is the node-store seam. All methods taking a node require what
// the paper's pseudocode requires at that point: reads of Size, Child,
// AppendLeaf and LeafState are stable only under the node's lock (or at
// quiescence, or validated by AppendLeaf's versions); Kind, RoutingKey
// and SearchKey are immutable.
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
	// AppendLeaf appends the leaf's pairs with lo <= key <= hi to items,
	// unsorted, in one pass, and reports what the pass saw (moot for a
	// locked leaf): the leaf's version before and after it and, read in
	// between, whether the leaf was unlinked and its range-query stamp
	// and version chain. A lock-free pass is consistent iff before ==
	// after and even: no version window overlapped it. (Scalar results:
	// a five-field struct result is copied through the stack in a way
	// that stalls store forwarding, once per leaf a scan visits.)
	// GatherInternal appends an internal node's children and routing
	// keys, in order.
	AppendLeaf(leaf R, items []rq.Pair, lo, hi uint64) (out []rq.Pair, before, after uint64, marked bool, stamp uint64, chain *rq.Version)
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

	// The steps below serve the scan and batch engines (scan.go,
	// batch.go), as AppendLeaf does: Route and ApplyRun are called once
	// per node or leaf visited, Insert once per key that needs a split.

	// Route returns the child of the internal node n whose key range
	// holds key, that child's key range [clo, chi) within n's range
	// [lo, hi) — hi = 2^64-1 means unbounded above (no key is 2^64-1) —
	// and whether the child is a leaf.
	Route(n R, key, lo, hi uint64) (child R, clo, chi uint64, leaf bool)
	// ApplyRun inserts <run[i].K, vals[run[i].Idx]> (insert) or deletes
	// run[i].K into the locked leaf, in run order, one version window per
	// key and with the per-key operation's semantics (an Elim store
	// publishes each window's record), storing each result into res and
	// ok at the key's input index. It returns how many keys it applied —
	// stopping before the first insert that finds the leaf full, or
	// before the first key if the leaf is unlinked (marked) — and the
	// leaf's size.
	ApplyRun(leaf R, insert bool, run []batchkit.Ent, vals, res []uint64, ok []bool) (applied, size int, marked bool)
	// Insert is the store's per-key insert, which a batch falls back to
	// for a key that needs a splitting insert.
	Insert(key, val uint64) (old uint64, inserted bool)
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
