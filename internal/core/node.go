// Package core implements the two volatile data structures contributed by
// "Elimination (a,b)-trees with fast, durable updates" (Srivastava & Brown,
// PPoPP 2022):
//
//   - the OCC-ABtree (paper §3): a concurrent relaxed (a,b)-tree using
//     fine-grained versioned node locks for updates and lock-free,
//     version-validated searches, and
//   - the Elim-ABtree (paper §4): the OCC-ABtree extended with *publishing
//     elimination*, where an update publishes a record of itself (the
//     paper's ElimRecord; here the leaf's slot record) in the leaf it
//     modified so that concurrent inserts/deletes of the same key can
//     linearize against it and return without writing to the tree.
//
// Both trees are instances of one Tree type (elimination is a construction
// option): the paper describes the Elim-ABtree as "a modified version of the
// OCC-ABtree".
//
// This package is the Go-heap node store: the node layouts, and the
// leaf reads, locked leaf writes and slot record (elimination's Record)
// behind the store's seam steps. The algorithm itself — the descent,
// Find's double collect, Insert, Delete and Upsert with their pre-lock
// phase and lockOrElim, splitting inserts, fixTagged, fixUnderfull,
// range and snapshot scans, batched operations, Validate and the other
// inspection walks — is internal/abalg, written once for this store and
// for internal/pabtree's arena; it reaches the nodes through the
// abalg.Store seam that *Thread implements (seam.go, ops.go), one call
// per node or leaf it visits.
//
// Keys and values are uint64. Key 0 is reserved as the paper's ⊥ (the
// empty-slot sentinel in leaf key arrays).
package core

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/abalg"
	"repro/internal/rq"
)

const (
	// maxCap is the compile-time capacity of per-node arrays: the paper's
	// b = 11. The runtime degree b can be configured anywhere in
	// [4, maxCap].
	maxCap = abalg.MaxCap

	// DefaultMaxSize is the paper's b: at most 11 keys per leaf and 11
	// child pointers per internal node.
	DefaultMaxSize = maxCap

	// DefaultMinSize is the paper's a: at least 2 keys per leaf and 2
	// child pointers per internal node (except the root).
	DefaultMinSize = 2

	// emptyKey is ⊥: an empty slot in a leaf's keys array.
	emptyKey = 0
)

// node is the header every tree node starts with, and the type of every
// tree pointer. A node is never allocated on its own: it is the first
// field of one of two allocation types, picked by the only two
// allocation sites (Tree.newLeaf, newInternal) and sized to a Go
// allocation class each (TestNodeLayout pins the budgets):
//
//	header    lock, state, kind, searchKey + 11 keys        112 B
//	inner     header + 11 child pointers                    200 B (class 208)
//	leaf      header + ver, rq.LeafState + 11 values        224 B
//
// OCC-ABtree and Elim-ABtree leaves are the same 224 B: the elimination
// record lives in spare state bits and the slot it names (Record, seam.go).
//
// Everything that works on any node — locking, marking, routing by keys,
// re-location by searchKey — reads the header through the *node. The
// role-specific tails are reached through the downcasts leaf() and
// inner(), which hold the package's only unsafe conversions besides
// touch's line loads; kind says which one is legal (LeafKind: leaf;
// otherwise inner).
//
// Mutability discipline:
//   - header state (marked bit, leaf size, slot record): written only
//     while the node's lock is held (or before publication). marked is set
//     once, when the node is unlinked from the tree, and never cleared.
//     Leaf size and record change between the leaf's two ver increments.
//   - header kind, nchildren, searchKey: immutable.
//   - header keys: in a leaf, mutated only while the leaf's lock is held,
//     between the two ver increments, and read lock-free by searches. In
//     an internal node they are the routing keys, immutable after
//     publication ("once an internal node is created, its routing keys
//     are never changed" — §3.1); adding/removing one replaces the node.
//   - leaf ver/vals/LeafState: as leaf keys.
//   - inner ptrs: mutated only while the node's lock is held; read
//     lock-free by searches.
type node struct {
	// lock is the node's test-and-test-and-set lock word: 0 free, 1
	// held (Thread.TryLock). It is a field of its own at offset 0, not a
	// bit of state: kind and nchildren's padding absorbs it, so the
	// header stays 112 B and touch's words stay where they are.
	lock atomic.Uint32

	// state packs the marked bit with a leaf's number of non-empty keys
	// and, on an Elim-ABtree, its slot record (see the bit map below).
	state atomic.Uint32

	kind abalg.Kind

	// nchildren is an internal node's child-pointer count (immutable);
	// the node has nchildren-1 routing keys in keys[0..nchildren-2].
	nchildren uint8

	// searchKey is the immutable lower bound of this node's key range,
	// used by fixTagged/fixUnderfull to re-locate the node: the unique
	// search path for searchKey passes through every reachable node whose
	// key range contains it (paper Def. 3.3/3.4), hence through this node.
	searchKey uint64

	keys [maxCap]atomic.Uint64
}

// leaf is the allocation behind a *node of LeafKind: the paper's leaf
// (lock, version, size, 11 keys, 11 values) plus the range-query stamp.
type leaf struct {
	node

	// ver is the leaf's version: even when quiescent, odd while the lock
	// holder is modifying the leaf. Searches use it for double-collect
	// validation (§3.2); publishing elimination keys off it (§4.1).
	ver atomic.Uint64

	// The range-query write stamp and version chain (rqsnap.go).
	rq.LeafState

	vals [maxCap]atomic.Uint64
}

// inner is the allocation behind a *node of InternalKind or TaggedKind.
type inner struct {
	node
	ptrs [maxCap]atomic.Pointer[node]
}

// checkDowncasts makes the downcasts verify the node's kind first. Only
// tests set it (before any tree exists): with separate allocations, vals
// of an internal node or ptrs of a leaf would be an out-of-bounds read.
var checkDowncasts bool

//go:noinline
func (n *node) checkKind(wantLeaf bool) {
	if n.isLeaf() != wantLeaf {
		panic("core: node downcast to the wrong layout")
	}
}

// leaf returns the leaf n heads; n must be of LeafKind.
func (n *node) leaf() *leaf {
	if checkDowncasts {
		n.checkKind(true)
	}
	return (*leaf)(unsafe.Pointer(n))
}

// inner returns the internal node n heads; n must not be of LeafKind.
func (n *node) inner() *inner {
	if checkDowncasts {
		n.checkKind(false)
	}
	return (*inner)(unsafe.Pointer(n))
}

// touch loads one word of every cache line n's allocation spans and
// discards them (abalg.Store.Touch). The allocation classes are 16 B
// aligned for an inner node (208 B) and 32 B aligned for a leaf (224
// B), so either spans at most four 64 B lines, and the words at offsets
// 0, 64, 128 and 192 lie inside both layouts and on four different
// lines. Every word there is only ever written atomically, or before
// publication.
func (n *node) touch() {
	p := unsafe.Pointer(n)
	atomic.LoadUint64((*uint64)(p))
	atomic.LoadUint64((*uint64)(unsafe.Add(p, 64)))
	atomic.LoadUint64((*uint64)(unsafe.Add(p, 128)))
	atomic.LoadUint64((*uint64)(unsafe.Add(p, 192)))
}

func (n *node) isLeaf() bool { return n.kind == abalg.LeafKind }
func (n *node) tagged() bool { return n.kind == abalg.TaggedKind }

// The state word is a leaf's size word (abalg.SizeMask, abalg.RecMask:
// its key count and, on an Elim-ABtree, its slot record) with the marked
// bit on top:
//
//	bits 0-3   a leaf's number of non-empty keys (SizeMask)
//	bits 4-9   a leaf's slot record (RecMask; Elim-ABtree only)
//	bit  31    marked
//
// Here the record's key and value are the slot's pair. A publishing
// delete cannot clear the slot its record names, so it leaves its pair
// in place as a tombstone, already excluded from size: every reader of
// an Elim-ABtree leaf skips the slot a RecDelete record names
// (tombstone), marked leaves included, whose frozen contents lock-free
// readers may still reach. The leaf's next version window writes ⊥ into
// the tombstone before it publishes (openWindow).
const markedBit = 1 << 31

// tombstone returns the slot a publishing delete left its pair in, or -1.
func tombstone(w uint32) int {
	if i, k := abalg.UnpackRec(w); k == abalg.RecDelete {
		return i
	}
	return -1
}

func (n *node) isMarked() bool { return n.state.Load()&markedBit != 0 }

// mark flags n as unlinked. The caller holds n's lock, which serialises
// every write to state.
func (n *node) mark() { n.state.Store(n.state.Load() | markedBit) }

// size returns a leaf's number of non-empty keys.
func (n *node) size() int { return int(n.state.Load() & abalg.SizeMask) }

// routingKeys returns the number of routing keys in an internal node.
func (n *node) routingKeys() int { return int(n.nchildren) - 1 }

// route returns the index of the internal node n's child whose key range
// holds key, and that child's range within n's range [lo, hi).
func (n *node) route(key, lo, hi uint64) (int, uint64, uint64) {
	rk := n.routingKeys()
	for i := 0; i < rk; i++ {
		k := n.keys[i].Load()
		if key < k {
			return i, lo, k
		}
		lo = k
	}
	return rk, lo, hi
}

// tomb returns the slot every reader of l must skip: its tombstone on an
// Elim-ABtree, -1 otherwise. Lock-free readers call it inside their
// double collect.
func (t *Tree) tomb(l *leaf) int {
	if t.elim {
		return tombstone(l.state.Load())
	}
	return -1
}

// newLeaf builds a leaf containing items (at most b of them), packed into
// the first len(items) slots. searchKey is the lower bound of the leaf's
// key range.
func (t *Tree) newLeaf(items []rq.Pair, searchKey uint64) *node {
	l := new(leaf)
	l.kind, l.searchKey = abalg.LeafKind, searchKey
	for i, it := range items {
		l.keys[i].Store(it.K)
		l.vals[i].Store(it.V)
	}
	l.state.Store(uint32(len(items)))
	return &l.node
}

// newInternal builds an internal or tagged node with the given routing keys
// and children; len(children) must equal len(keys)+1. searchKey is the
// lower bound of the node's key range.
func newInternal(k abalg.Kind, keys []uint64, children []*node, searchKey uint64) *node {
	if len(children) != len(keys)+1 {
		panic("core: internal node children/keys arity mismatch")
	}
	n := &inner{node: node{kind: k, nchildren: uint8(len(children)), searchKey: searchKey}}
	for i, rk := range keys {
		n.keys[i].Store(rk)
	}
	for i, c := range children {
		n.ptrs[i].Store(c)
	}
	return &n.node
}
