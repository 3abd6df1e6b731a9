// Package abalg is the paper's relaxed (a,b)-tree written once for every
// node store: the per-key operations (ops.go: the lock-free descent
// Search, Find with its double collect, and Insert, Delete and Upsert
// with their pre-lock phase; publishing elimination's vocabulary and
// lockOrElim in elim.go), the structural updates (splitting insert,
// fixTagged, fixUnderfull with its distribute and merge, and the
// range-query history the replacement leaves inherit by reference),
// range scans and snapshot scans (scan.go), batched point operations
// staged once and served by one level-synchronous partition descent
// (batch.go; ApplyStaged takes a batch its caller staged) and the
// quiescent inspection walks (Validate, Scan, Stats, ...).
//
// The algorithms are generic over a node reference R — a *node on the Go
// heap in internal/core, a uint64 arena offset in internal/pabtree — and
// reach nodes only through the Store seam, which each package's *Thread
// implements. The paper presents its durable trees (§5) as the volatile
// ones "with persistence additions"; the seam is where the additions
// live: NewLeaf/NewInternal flush what they build, SetChild is an atomic
// store or link-and-persist, Unlink also hands the slot to epoch
// reclamation, Pause, AppendLeaf, Record and a failed TryLock also
// observe an injected crash, and PutLocked/DeleteLocked write a leaf with
// the store's flush discipline.
//
// The seam is coarse on purpose: one dynamic call per node visited or
// per poll of a wait loop, never one per slot. A split runs once per ~8
// inserts into a growing tree and the fix-ups on under 1 % of
// steady-state operations, so the dispatch is invisible there, whereas a
// per-slot accessor interface under the per-operation descent measured
// 14-25 % slower (EXPERIMENTS.md, "One rebalancer"). A descent pays one
// Route per internal node, a double collect one AppendLeaf per pass, an
// update one locked write and UnlockAll beside them, and a scan the same
// steps per node or leaf it visits against a leaf's worth of slots each.
// A batch pays one Touch and one Kind per node its descent reaches and
// one Branch per child a run is split among: Branch is Route without the
// read of the child, so a level's nodes are all requested (Touch) before
// any of them is read (EXPERIMENTS.md, "Scans and batches through the
// seam", "Point operations through the seam", "One descent for both
// trees" and "Level-synchronous batch descent"). What stays concrete in
// each store is the node layout: the leaf reads and writes behind the
// seam steps, the lines Touch loads, and the slot record's encoding
// behind Record.
//
// Node locks depart from the paper. Its trees queue on MCS locks (§3.1,
// §7), which scale across NUMA sockets when every thread owns a core.
// Here a node's lock is one word taken by test-and-test-and-set
// (Store.TryLock), and every wait for one is a loop over TryLock: Lock,
// or lockOrElim on an Elim tree. Goroutines are not pinned, and a queued
// waiter the scheduler deschedules stalls every waiter queued behind it,
// while a descheduled TTAS waiter holds up nobody. With GOMAXPROCS=8 on
// 2 vCPUs, 8 goroutines making 20 000 upserts each on 64 keys took
// 5.7–43 s on the OCC tree with MCS and 0.03–0.10 s with TTAS (10 runs
// each). Figure 13's update-only Zipf-1 cell at 32 threads went from 1.8
// to 5.1–5.6 ops/µs and its p99 from ~290 to ~2 µs, but its p999 from
// ~470 to 1340–1510 µs (EXPERIMENTS.md, "One lock discipline").
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
	left      []hop[R]       // the spans a round's leaves left over (batch.go)
	level     []hop[R]       // the batch descent's frontier (batch.go)
	next      []hop[R]       // and the level it routes the frontier into
	scanner   *rq.Scanner    // the RangeSnapshot registration, made on first use

	// NoScanCache makes every scan hop re-descend from the root,
	// bypassing the cached path (differential tests only).
	NoScanCache bool
}

// ResetPath empties the cached scan path, so the next hop descends from
// the root. A store whose node references can be recycled (pabtree's
// epoch-managed slots) calls it on entry to every scan: a cached
// reference is only meaningful inside the critical section it was read
// in.
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

	// TryLock takes n's lock if it is free, without waiting; every wait
	// for a lock is a loop over it (Lock, lockOrElim). UnlockAll
	// releases everything this Thread holds.
	TryLock(n R) bool
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

	// The steps below serve the descent, the per-key updates (ops.go)
	// and the scan and batch engines, as AppendLeaf does: one call per
	// node or leaf visited, per child a batch's run is split among, per
	// poll of lockOrElim (elim.go), or per key written to a locked leaf.

	// Branch returns the child of the internal node n whose key range
	// holds key, its index i in n, and that child's key range [clo, chi)
	// within n's range [lo, hi) — hi = 2^64-1 means unbounded above (no
	// key is 2^64-1). It reads n only, never the child: the batch
	// engine's level loop routes a whole level's runs before it reads
	// any node of the next level.
	Branch(n R, key, lo, hi uint64) (child R, i int, clo, chi uint64)
	// Route is Branch plus whether the child is a leaf: the step of a
	// one-key descent, which reads the child next anyway. A store writes
	// its routing loop once, for both.
	Route(n R, key, lo, hi uint64) (child R, i int, clo, chi uint64, leaf bool)
	// Touch loads one word of every cache line of node n, of either
	// kind, and discards them: the loads are independent, so the
	// processor keeps their misses in flight together. The batch engine
	// touches a whole level before it classifies and routes it, so a
	// batch waits for about one miss per level rather than one per node.
	Touch(n R)
	// Elim reports whether the store runs publishing elimination (an
	// Elim tree, §4.1): its updates publish slot records, and its
	// pre-lock phase is one optimistic scan and lockOrElim.
	Elim() bool
	// Record waits until the leaf is quiescent and returns its slot
	// record as of that moment — the paper's ElimRecord (§4.1), which
	// summarises the last simple insert, successful delete or replace
	// that modified the leaf: the key and value of that publishing
	// update, its kind, which eliminating operations check against the
	// compatibility matrix (elim.go), and ver, the odd version the update
	// installed with its first version increment. An operation whose
	// start version is <= ver was in progress when the publisher
	// linearized, so it may eliminate itself against the record. ver ==
	// 0 and key == 0 mean none, or the leaf is marked.
	Record(leaf R) (key, val uint64, k RecKind, ver uint64)
	// Eliminated counts op as returned by elimination (ElimStats).
	Eliminated(op OpKind)
	// PutLocked inserts absent <key, val> into the locked leaf, or
	// replaces a present key's value if replace is set, in one version
	// window (which, on an Elim tree, publishes the slot record) with the
	// store's flush discipline. old is key's previous value, inserted
	// whether key was absent; full means it was absent and the leaf has
	// no free slot, marked that the leaf is unlinked: nothing written.
	PutLocked(leaf R, key, val uint64, replace bool) (old uint64, inserted, full, marked bool)
	// DeleteLocked removes key from the locked leaf like PutLocked writes,
	// returning its value, whether it was present and the leaf's size.
	DeleteLocked(leaf R, key uint64) (val uint64, found bool, size int, marked bool)
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

// Lock blocks until n's lock is held: the one blocking acquire of both
// trees, a loop over TryLock. Callers lock bottom-to-top, ties
// left-to-right (deadlock freedom, §3.3.5).
func Lock[R comparable](s Store[R], n R) {
	for spins := 0; !s.TryLock(n); SpinPause(&spins) {
	}
}
