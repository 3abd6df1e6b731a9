// Package pabtree implements the paper's durably linearizable trees: the
// p-OCC-ABtree and p-Elim-ABtree (§5), the OCC/Elim-ABtree with the
// paper's persistence additions: node keys, values and child pointers
// live in a simulated persistent memory arena (internal/pmem); locks,
// versions, sizes, marks, elimination records and the free-slot list are
// volatile headers (vnode), one per arena slot in use, and are
// reconstructed by Recover.
//
// This package is the arena node store: the word map, the leaf reads,
// the slot record's encoding (Record) and the flush discipline of the
// locked leaf writes behind the store's seam steps, the slot allocator
// and recovery. The algorithm itself — the descent, Find's double
// collect, Insert, Delete and Upsert with their pre-lock phase and
// lockOrElim, splitting inserts, fixTagged, fixUnderfull, range and
// snapshot scans, batched operations, Validate and the other inspection
// walks — is internal/abalg, shared with internal/core's Go-heap store;
// it reaches the nodes through the abalg.Store seam that *Thread
// implements (seam.go, ops.go), whose NewLeaf, NewInternal and SetChild
// are where the structural flushes below live, and whose waits (Pause,
// AppendLeaf on an open window, Record, a failed TryLock) observe an
// injected crash.
// The scan and batch wrappers bracket each call with an epoch critical
// section and reset the cached scan path on entry (rqsnap.go).
//
// # Node layout
//
// A node is NodeWords = 24 words, three cache lines, line-aligned. Word 0
// of both kinds is the immutable meta word (kind | nchildren<<8).
//
//	          line 0 (words 0-7)     line 1 (words 8-15)    line 2 (words 16-23)
//	internal  meta,                  routing keys 7-9,      children 5-10,
//	          routing keys 0-6       children 0-4           two words unused
//	leaf      meta, one word spare,  pairs 3-6              pairs 7-10
//	          pairs 0-2
//
// Pair i of a leaf is words 2+2i (key, 0 = ⊥) and 3+2i (value): an even
// word and its successor, so no pair straddles a line. Only the accessors
// in this file (leafKeyOff/leafValOff/routingKeyOff/childOff) know the
// word map.
//
// # Flush discipline
//
//   - A simple insert stores the value, stores the key, and flushes the
//     pair's line once (persistPair). One flush suffices because both
//     words are in one line: stores to a line become visible in program
//     order and a line is written back as a whole, so whatever instant of
//     the line reaches PM — by this flush or by an earlier eviction — it
//     cannot contain the key without the value stored before it. That is
//     x86's same-line persist ordering (the invariant FAST&FAIR is built
//     on), and it is what internal/pmem models: Flush and Crash persist a
//     line as a snapshot of its current words. The insert is durable —
//     and, if interrupted by a crash, linearizes — when the key reaches
//     PM. The paper's §5 insert keeps keys and values in separate arrays
//     and so pays two flushes (value, then key); this is a departure.
//   - A successful delete flushes the ⊥ key; a replacing Upsert flushes
//     the value word (single-word atomicity). One flush each.
//   - Structural updates (splitting inserts, fixTagged, fixUnderfull)
//     flush all newly created nodes, then publish them with the
//     link-and-persist technique: the new child pointer is written with a
//     mark bit, flushed, and unmarked; traversals that encounter a marked
//     pointer wait until it is persisted, so operations never depend on
//     unpersisted data.
//   - Node slots are recycled through epoch-based reclamation (the DEBRA
//     analogue), since the Go GC cannot manage arena memory.
//
// # Recovery
//
// Recover walks the persisted image from the entry node's fixed offset,
// rebuilds the volatile headers (lock, version, size, marked), strips
// pointer mark bits, rebuilds the slot free list from reachability, and
// completes any rebalancing (tagged or underfull nodes) that a crash
// interrupted — yielding a tree on which the strict-linearizability
// invariants of §5.1 hold again. In a leaf it may find a ⊥ key beside any
// value word (an insert cut short before its key store, or a deleted
// pair: both logically empty) or a key beside the value stored with it;
// it can never find a key beside a stale value.
package pabtree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abalg"
	"repro/internal/epoch"
	"repro/internal/pmem"
	"repro/internal/rq"
)

// NodeWords is the arena stride of one node slot in 64-bit words: three
// cache lines. Arena sizes derived from a slot count multiply by it.
const NodeWords = 24

// Persistent node layout, in words relative to the node offset (word map
// in the package comment). The bases are used only by the accessors
// (leafKeyOff/leafValOff/routingKeyOff/childOff) and the two node
// constructors below.
const (
	metaWord = 0 // kind | nchildren<<8 (immutable, flushed at creation)
	keysBase = 1 // internal routing keys [b-1]
	pairBase = 2 // leaf <key, value> pairs [b], two words each (word 1 spare)

	// maxB is the largest supported node degree for the persistent layout.
	maxB = abalg.MaxCap

	ptrsBase = keysBase + maxB - 1 // internal child offsets [b]

	// markBit flags a child pointer that has been written but whose line
	// has not yet been flushed (link-and-persist).
	markBit = uint64(1) << 63

	emptyKey = 0
)

func packMeta(k abalg.Kind, nchildren int) uint64 { return uint64(k) | uint64(nchildren)<<8 }
func kindOf(meta uint64) abalg.Kind               { return abalg.Kind(meta & 0xff) }
func nchildrenOf(meta uint64) int                 { return int(meta >> 8 & 0xff) }

// vnode holds a node's volatile fields, indexed by arena slot. Everything
// here is reset by Recover. One header per cache line (layout_test.go).
//
// A p-Elim-ABtree leaf's elimination record is the slot record: the
// slot the leaf's latest publishing update wrote and its kind, in spare
// bits of the size word (abalg.PackRec), with Ver implied by the leaf's
// version (see record). Its key and value are the slot's arena pair,
// except that a durable delete must persist ⊥ in its key word, so the
// deleted key is kept in delKey — there are no tombstones here. Records
// are volatile: elimination never crosses a crash (an operation is only
// eliminated after the publisher's second — volatile — version increment,
// by which point the publisher is durably linearized, §5).
type vnode struct {
	// lock is the node's test-and-test-and-set lock word: 0 free, 1 held
	// (Thread.TryLock).
	lock   atomic.Uint32
	marked atomic.Bool
	// freeNext links the slot into the free list while it is recycled
	// (pushFree/popFree); it shares marked's word, so the list costs no
	// side table.
	freeNext atomic.Uint32
	ver      atomic.Uint64
	// size is a leaf's key count (abalg.SizeMask) and its slot record
	// (abalg.RecMask).
	size      atomic.Uint32
	delKey    atomic.Uint64
	searchKey uint64 // lower bound of the node's key range (abalg.Store)

	// The leaf's range-query write stamp and version chain (rqsnap.go).
	// Volatile: reset by allocSlot and absent after Recover.
	rq.LeafState
}

// Tree is a p-OCC-ABtree, or a p-Elim-ABtree when built with
// WithElimination. All operations go through a Thread (NewThread).
type Tree struct {
	arena *pmem.Arena
	// chunks is the volatile header directory: entry c holds the headers
	// of slots [c*chunkSlots, (c+1)*chunkSlots), installed by bumpSlot
	// when the arena's allocation cursor first reaches the chunk, so the
	// headers follow the slots in use rather than the arena's capacity.
	chunks   []atomic.Pointer[vchunk]
	entryOff uint64

	// Slot free list: a Treiber stack of recycled node slots (linked
	// through vnode.freeNext), fed by the epoch manager after the grace
	// period.
	freeHead atomic.Uint64 // tag<<32 | slot (slot 0 = empty)
	em       *epoch.Manager[uint32]

	a, b int
	elim bool

	elims [3]atomic.Uint64 // eliminated operations, by abalg.OpKind

	// rqp coordinates linearizable range queries (rqsnap.go).
	rqp *rq.Provider
}

// ElimStats reports how many inserts, deletes and upserts were
// eliminated against a published record rather than executed against
// the tree.
func (t *Tree) ElimStats() (inserts, deletes, upserts uint64) {
	return t.elims[abalg.OpInsert].Load(), t.elims[abalg.OpDelete].Load(), t.elims[abalg.OpUpsert].Load()
}

// Option configures a Tree.
type Option func(*config)

type config struct {
	a, b  int
	elim  bool
	clock *rq.Clock
}

// WithElimination enables publishing elimination (p-Elim-ABtree).
func WithElimination() Option { return func(c *config) { c.elim = true } }

// WithRQClock couples the tree's range-query subsystem to a shared
// linearization clock instead of a private one (see core.WithRQClock):
// trees on one clock serve mutually linearizable snapshot scans through
// RangeSnapshotAt. The clock is volatile; pass it again on Recover.
func WithRQClock(c *rq.Clock) Option { return func(cf *config) { cf.clock = c } }

// WithDegree sets the (a,b) bounds; 2 <= a <= b/2, 4 <= b <= 11.
func WithDegree(a, b int) Option { return func(c *config) { c.a, c.b = a, b } }

// New creates an empty persistent tree in arena. The arena must be fresh
// (nothing allocated); the tree claims it entirely. The entry node lands
// at a fixed offset so Recover can find it after a crash.
func New(arena *pmem.Arena, opts ...Option) *Tree {
	if arena.Allocated() != 0 {
		panic("pabtree: arena must be fresh")
	}
	cfg := config{a: 2, b: maxB}
	for _, o := range opts {
		o(&cfg)
	}
	t := newTreeShell(arena, cfg)

	// Slot 0 is reserved so that offset 0 can mean "null".
	if t.bumpSlot() != 0 {
		panic("pabtree: reserved slot not at offset 0")
	}
	entry := t.bumpSlot()
	if entry != entryOffset {
		panic("pabtree: entry not at fixed offset")
	}
	root := t.bumpSlot()
	t.initLeaf(root, nil, 1)
	t.initInternalNode(entry, abalg.InternalKind, nil, []uint64{root}, 1)
	return t
}

// entryOffset is the fixed arena offset of the entry node (slot 1).
const entryOffset = NodeWords

// newTreeShell builds the volatile superstructure shared by New and
// Recover.
func newTreeShell(arena *pmem.Arena, cfg config) *Tree {
	if cfg.b < 4 || cfg.b > maxB || cfg.a < 2 || cfg.a > cfg.b/2 {
		panic(fmt.Sprintf("pabtree: invalid degree (a=%d, b=%d)", cfg.a, cfg.b))
	}
	slots := arena.Cap() / NodeWords
	t := &Tree{
		arena:    arena,
		chunks:   make([]atomic.Pointer[vchunk], (slots+chunkSlots-1)/chunkSlots),
		entryOff: entryOffset,
		a:        cfg.a,
		b:        cfg.b,
		elim:     cfg.elim,
	}
	t.em = epoch.NewManager[uint32](t.pushFree)
	if cfg.clock == nil {
		cfg.clock = rq.NewClock()
	}
	t.rqp = rq.NewProviderWith(cfg.clock)
	return t
}

// Arena returns the backing persistent memory arena.
func (t *Tree) Arena() *pmem.Arena { return t.arena }

// Elim reports whether publishing elimination is enabled.
func (t *Tree) Elim() bool { return t.elim }

// RQClock returns the linearization clock the tree's range-query
// subsystem runs on (shared with other trees under WithRQClock).
func (t *Tree) RQClock() *rq.Clock { return t.rqp.Clock() }

// MinSize returns a; MaxSize returns b.
func (t *Tree) MinSize() int { return t.a }

// MaxSize returns the maximum node size b.
func (t *Tree) MaxSize() int { return t.b }

// chunkSlots is the number of node slots one header chunk covers
// (4096 x 64 B = 256 KiB per chunk).
const chunkSlots = 4096

type vchunk [chunkSlots]vnode

// vn returns the volatile header of the node at off. The chunk is present
// for every bump-allocated slot (bumpSlot, Recover), and an offset reaches
// a reader only through a pointer published after its allocation.
func (t *Tree) vn(off uint64) *vnode { return t.vnSlot(off / NodeWords) }

func (t *Tree) vnSlot(slot uint64) *vnode {
	return &t.chunks[slot/chunkSlots].Load()[slot%chunkSlots]
}

// installChunk makes header chunk c present. Racing installers agree on
// the CAS winner.
func (t *Tree) installChunk(c uint64) {
	if t.chunks[c].Load() == nil {
		t.chunks[c].CompareAndSwap(nil, new(vchunk))
	}
}

// ---- slot management ----

func (t *Tree) pushFree(slot uint32) {
	for {
		h := t.freeHead.Load()
		t.vnSlot(uint64(slot)).freeNext.Store(uint32(h))
		nh := (h>>32+1)<<32 | uint64(slot)
		if t.freeHead.CompareAndSwap(h, nh) {
			return
		}
	}
}

func (t *Tree) popFree() uint32 {
	for {
		h := t.freeHead.Load()
		slot := uint32(h)
		if slot == 0 {
			return 0
		}
		next := t.vnSlot(uint64(slot)).freeNext.Load()
		nh := (h>>32+1)<<32 | uint64(next)
		if t.freeHead.CompareAndSwap(h, nh) {
			return slot
		}
	}
}

// bumpSlot claims a never-used slot from the arena and returns its
// offset, installing the slot's header chunk if it is the first there.
func (t *Tree) bumpSlot() uint64 {
	off := t.arena.Alloc(NodeWords)
	t.installChunk(off / NodeWords / chunkSlots)
	return off
}

// allocSlot returns the offset of a free node slot, preferring recycled
// ones, and resets its volatile header.
func (t *Tree) allocSlot() uint64 {
	var off uint64
	if slot := t.popFree(); slot != 0 {
		off = uint64(slot) * NodeWords
	} else {
		off = t.bumpSlot()
	}
	v := t.vn(off)
	v.marked.Store(false)
	v.ver.Store(0)
	v.size.Store(0)
	v.TS.Store(0)
	v.Vers.Store(nil)
	return off
}

// ---- node construction (all words flushed before the caller links) ----

// initLeaf writes and flushes a leaf node's persistent words and resets
// its volatile header. searchKey is the node's key-range lower bound.
func (t *Tree) initLeaf(off uint64, items []rq.Pair, searchKey uint64) {
	a := t.arena
	a.Store(off+metaWord, packMeta(abalg.LeafKind, 0))
	for i := 0; i < t.b; i++ {
		var k, v uint64
		if i < len(items) {
			k, v = items[i].K, items[i].V
		}
		a.Store(leafKeyOff(off, i), k)
		a.Store(leafValOff(off, i), v)
	}
	a.FlushRange(off, pairBase+2*uint64(t.b))
	vn := t.vn(off)
	vn.size.Store(uint32(len(items)))
	vn.searchKey = searchKey
}

// initInternalNode writes and flushes an internal (or tagged) node.
func (t *Tree) initInternalNode(off uint64, k abalg.Kind, keys []uint64, children []uint64, searchKey uint64) {
	if len(children) != len(keys)+1 {
		panic("pabtree: internal node arity mismatch")
	}
	a := t.arena
	a.Store(off+metaWord, packMeta(k, len(children)))
	for i := 0; i < t.b-1; i++ {
		var rk uint64
		if i < len(keys) {
			rk = keys[i]
		}
		a.Store(routingKeyOff(off, i), rk)
	}
	for i := 0; i < t.b; i++ {
		var c uint64
		if i < len(children) {
			c = children[i]
		}
		a.Store(childOff(off, i), c)
	}
	a.FlushRange(off, ptrsBase+uint64(t.b))
	t.vn(off).searchKey = searchKey
}

// ---- persistent field access ----

func (t *Tree) meta(off uint64) uint64 { return t.arena.Load(off + metaWord) }

func (t *Tree) isLeaf(off uint64) bool { return kindOf(t.meta(off)) == abalg.LeafKind }

// leafKeyOff and leafValOff locate pair i of the leaf at off. The two
// words are adjacent and pairBase is even, so a pair never straddles a
// cache line: storing the value, then the key, then flushing the key's
// line persists both or neither (package comment).
func leafKeyOff(off uint64, i int) uint64 { return off + pairBase + 2*uint64(i) }
func leafValOff(off uint64, i int) uint64 { return off + pairBase + 2*uint64(i) + 1 }

// routingKeyOff and childOff locate routing key i and child pointer i of
// the internal node at off.
func routingKeyOff(off uint64, i int) uint64 { return off + keysBase + uint64(i) }
func childOff(off uint64, i int) uint64      { return off + ptrsBase + uint64(i) }

func (t *Tree) leafKey(off uint64, i int) uint64 { return t.arena.Load(leafKeyOff(off, i)) }
func (t *Tree) leafVal(off uint64, i int) uint64 { return t.arena.Load(leafValOff(off, i)) }

func (t *Tree) routingKey(off uint64, i int) uint64 { return t.arena.Load(routingKeyOff(off, i)) }

// route returns the index of the internal node at off's child whose key
// range holds key, and that child's range within the node's [lo, hi).
// The caller passes the node's meta word, which keeps route small enough
// to inline into both of its callers.
func (t *Tree) route(off, meta, key, lo, hi uint64) (i int, clo, chi uint64) {
	rk := nchildrenOf(meta) - 1
	for clo, chi = lo, hi; i < rk; i++ {
		k := t.routingKey(off, i)
		if key < k {
			chi = k
			break
		}
		clo = k
	}
	return
}

// loadChild returns child i of the internal node at off, waiting out the
// link-and-persist mark bit: a marked pointer has been written but not yet
// flushed, and following it could let an operation depend on unpersisted
// state (§5).
func (t *Tree) loadChild(off uint64, i int) uint64 {
	spins := 0
	for {
		raw := t.arena.Load(childOff(off, i))
		if raw&markBit == 0 {
			return raw
		}
		t.crashCheck()
		abalg.SpinPause(&spins)
	}
}

// setChildPersist publishes a new child pointer with link-and-persist:
// write marked, flush, unmark. The caller holds the node's lock and has
// already flushed the pointed-to nodes.
func (t *Tree) setChildPersist(off uint64, i int, child uint64) {
	w := childOff(off, i)
	t.arena.Store(w, child|markBit)
	t.arena.Flush(w)
	t.arena.Store(w, child)
}

// crashCheck aborts spin loops when a simulated crash has occurred, so
// waiters behind a crashed lock holder or marked pointer observe the
// crash instead of hanging (only relevant in crash-injection tests).
func (t *Tree) crashCheck() {
	if t.arena.FailpointTriggered() {
		panic(pmem.ErrCrash)
	}
}
