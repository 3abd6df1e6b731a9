// Package rntree implements an RNTree-style baseline (Liu, Xing, Chen &
// Wu, "Building Scalable NVM-Based B+tree with HTM", ICPP 2019), the
// second persistent tree in the paper's Figure 17 comparison.
//
// The RNTree's signature design is the leaf indirection array: each leaf
// keeps its key-value pairs in arbitrary slots plus a small sorted array
// of slot indices, so lookups can binary-search while inserts write the
// pair anywhere free — at the cost of shifting the indirection entries on
// every insert (a drawback the Elim-ABtree paper calls out in §2). The
// indirection array and the occupancy count share one cache line, so an
// update commits with a single flush of that line after persisting the
// pair itself.
//
// Substitution: the original executes leaf modifications in
// HTM transactions; portable Go has no HTM, so a short per-leaf mutex
// section stands in for the always-committing transaction, and an RWMutex
// protects the volatile inner index, as in our FPTree baseline.
package rntree

import (
	"sort"
	"sync"

	"repro/internal/pmem"
)

// Persistent leaf layout (words relative to the leaf offset):
//
//	word 0      packed meta: bits 0..3 count, bits 4+4i..7+4i slot index
//	            of the i-th smallest key (11 entries of 4 bits)
//	word 3      next-leaf offset (0 = none)
//	words 4..14 keys
//	words 15..25 values
//
// Packing the whole indirection array and count into one word makes an
// update's commit a single-word store + flush — atomic even against a
// crash that persists a torn cache line, which a multi-word indirection
// array would not be.
const (
	strideWords = 32
	metaWord    = 0
	nextWord    = 3
	keysBase    = 4
	valsBase    = 15
	leafCap     = 11
)

// NodeWords is the arena stride of one leaf, for callers that size an
// arena from a leaf count.
const NodeWords = strideWords

type leafMeta struct {
	mu  sync.Mutex
	off uint64
}

// Tree is an RNTree-style persistent B+tree.
type Tree struct {
	arena   *pmem.Arena
	innerMu sync.RWMutex
	seps    []uint64
	leaves  []*leafMeta
}

// New creates an empty tree in a fresh arena.
func New(arena *pmem.Arena) *Tree {
	if arena.Allocated() != 0 {
		panic("rntree: arena must be fresh")
	}
	off := arena.Alloc(strideWords)
	arena.FlushRange(off, strideWords)
	return &Tree{arena: arena, leaves: []*leafMeta{{off: off}}}
}

// Arena returns the backing arena.
func (t *Tree) Arena() *pmem.Arena { return t.arena }

func (t *Tree) findLeaf(key uint64) *leafMeta {
	i := sort.Search(len(t.seps), func(i int) bool { return key < t.seps[i] })
	return t.leaves[i]
}

// indirection reads the leaf's slot-order array (count entries).
func (t *Tree) indirection(off uint64) []byte {
	meta := t.arena.Load(off + metaWord)
	n := int(meta & 0xf)
	idx := make([]byte, n)
	for i := 0; i < n; i++ {
		idx[i] = byte(meta >> (4 + 4*i) & 0xf)
	}
	return idx
}

// writeIndirection stores the slot-order array and count as one packed
// word (the caller flushes it to commit — a single-word atomic commit).
func (t *Tree) writeIndirection(off uint64, idx []byte) {
	meta := uint64(len(idx))
	for i, s := range idx {
		meta |= uint64(s) << (4 + 4*i)
	}
	t.arena.Store(off+metaWord, meta)
}

// lookup binary-searches the indirection array. It returns the position
// in the array and whether the key was found.
func (t *Tree) lookup(off uint64, idx []byte, key uint64) (int, bool) {
	lo, hi := 0, len(idx)
	for lo < hi {
		mid := (lo + hi) / 2
		k := t.arena.Load(off + keysBase + uint64(idx[mid]))
		switch {
		case k < key:
			lo = mid + 1
		case k > key:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Find returns the value for key, if present.
func (t *Tree) Find(key uint64) (uint64, bool) {
	t.innerMu.RLock()
	lm := t.findLeaf(key)
	lm.mu.Lock()
	t.innerMu.RUnlock()
	defer lm.mu.Unlock()
	idx := t.indirection(lm.off)
	if pos, ok := t.lookup(lm.off, idx, key); ok {
		return t.arena.Load(lm.off + valsBase + uint64(idx[pos])), true
	}
	return 0, false
}

// Insert inserts <key, val> if absent, returning (0, true); if present it
// returns the existing value and false. Durable on return.
func (t *Tree) Insert(key, val uint64) (uint64, bool) {
	if key == 0 || key == ^uint64(0) {
		panic("rntree: reserved key")
	}
	for {
		t.innerMu.RLock()
		lm := t.findLeaf(key)
		lm.mu.Lock()
		t.innerMu.RUnlock()

		off := lm.off
		idx := t.indirection(off)
		pos, found := t.lookup(off, idx, key)
		if found {
			v := t.arena.Load(off + valsBase + uint64(idx[pos]))
			lm.mu.Unlock()
			return v, false
		}
		if len(idx) < leafCap {
			slot := freeSlot(idx)
			// Persist the pair first, then commit by flushing the meta
			// line with the shifted indirection array and new count.
			t.arena.Store(off+keysBase+uint64(slot), key)
			t.arena.Store(off+valsBase+uint64(slot), val)
			t.arena.Flush(off + keysBase + uint64(slot))
			t.arena.Flush(off + valsBase + uint64(slot))
			idx = append(idx, 0)
			copy(idx[pos+1:], idx[pos:]) // the indirection-shift cost
			idx[pos] = byte(slot)
			t.writeIndirection(off, idx)
			t.arena.Flush(off + metaWord)
			lm.mu.Unlock()
			return 0, true
		}
		lm.mu.Unlock()
		t.splitLeaf(key)
	}
}

// freeSlot returns a slot index not used by idx.
func freeSlot(idx []byte) int {
	var used uint16
	for _, s := range idx {
		used |= 1 << s
	}
	for s := 0; s < leafCap; s++ {
		if used&(1<<s) == 0 {
			return s
		}
	}
	panic("rntree: no free slot in non-full leaf")
}

// Delete removes key if present, returning its value and true. Durable on
// return (one meta-line flush).
func (t *Tree) Delete(key uint64) (uint64, bool) {
	if key == 0 || key == ^uint64(0) {
		panic("rntree: reserved key")
	}
	t.innerMu.RLock()
	lm := t.findLeaf(key)
	lm.mu.Lock()
	t.innerMu.RUnlock()
	defer lm.mu.Unlock()

	off := lm.off
	idx := t.indirection(off)
	pos, found := t.lookup(off, idx, key)
	if !found {
		return 0, false
	}
	v := t.arena.Load(off + valsBase + uint64(idx[pos]))
	idx = append(idx[:pos], idx[pos+1:]...)
	t.writeIndirection(off, idx)
	t.arena.Flush(off + metaWord)
	return v, true
}

// splitLeaf splits the (full) leaf covering key under the writer lock.
func (t *Tree) splitLeaf(key uint64) {
	t.innerMu.Lock()
	defer t.innerMu.Unlock()
	i := sort.Search(len(t.seps), func(i int) bool { return key < t.seps[i] })
	lm := t.leaves[i]
	lm.mu.Lock()
	defer lm.mu.Unlock()

	off := lm.off
	idx := t.indirection(off)
	if len(idx) < leafCap {
		return // another thread made room
	}
	mid := len(idx) / 2
	sep := t.arena.Load(off + keysBase + uint64(idx[mid]))

	// New right leaf with the upper half, fully persisted before linking.
	newOff := t.arena.Alloc(strideWords)
	newIdx := make([]byte, 0, len(idx)-mid)
	for j, s := range idx[mid:] {
		t.arena.Store(newOff+keysBase+uint64(j), t.arena.Load(off+keysBase+uint64(s)))
		t.arena.Store(newOff+valsBase+uint64(j), t.arena.Load(off+valsBase+uint64(s)))
		newIdx = append(newIdx, byte(j))
	}
	t.writeIndirection(newOff, newIdx)
	t.arena.Store(newOff+nextWord, t.arena.Load(off+nextWord))
	t.arena.FlushRange(newOff, strideWords)

	t.arena.Store(off+nextWord, newOff)
	t.arena.Flush(off + nextWord)

	// Shrink the old leaf (commit point: meta-line flush).
	t.writeIndirection(off, idx[:mid])
	t.arena.Flush(off + metaWord)

	nl := &leafMeta{off: newOff}
	t.seps = append(t.seps, 0)
	copy(t.seps[i+1:], t.seps[i:])
	t.seps[i] = sep
	t.leaves = append(t.leaves, nil)
	copy(t.leaves[i+2:], t.leaves[i+1:])
	t.leaves[i+1] = nl
}

// Recover rebuilds a tree from the persisted leaf chain (head at offset
// 0), deduplicating keys duplicated by a crash mid-split and skipping
// empty leaves.
func Recover(arena *pmem.Arena) *Tree {
	t := &Tree{arena: arena}
	seen := make(map[uint64]bool)
	type info struct {
		off    uint64
		minKey uint64
		n      int
	}
	var infos []info
	for off := uint64(0); ; {
		idx := t.indirection(off)
		kept := idx[:0]
		for _, s := range idx {
			k := arena.Load(off + keysBase + uint64(s))
			if seen[k] {
				continue // dropped duplicate from an interrupted split
			}
			seen[k] = true
			kept = append(kept, s)
		}
		if len(kept) != len(idx) {
			t.writeIndirection(off, kept)
			arena.Flush(off + metaWord)
		}
		minKey := ^uint64(0)
		if len(kept) > 0 {
			minKey = arena.Load(off + keysBase + uint64(kept[0]))
		}
		infos = append(infos, info{off, minKey, len(kept)})
		next := arena.Load(off + nextWord)
		if next == 0 {
			break
		}
		off = next
	}
	t.leaves = append(t.leaves, &leafMeta{off: infos[0].off})
	for _, inf := range infos[1:] {
		if inf.n == 0 {
			continue
		}
		t.leaves = append(t.leaves, &leafMeta{off: inf.off})
		t.seps = append(t.seps, inf.minKey)
	}
	return t
}

// Scan calls fn for every pair in ascending key order (quiescent only).
func (t *Tree) Scan(fn func(k, v uint64)) {
	type kv struct{ k, v uint64 }
	var items []kv
	for _, lm := range t.leaves {
		idx := t.indirection(lm.off)
		for _, s := range idx {
			items = append(items, kv{t.arena.Load(lm.off + keysBase + uint64(s)), t.arena.Load(lm.off + valsBase + uint64(s))})
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].k < items[b].k })
	for _, it := range items {
		fn(it.k, it.v)
	}
}

// Len returns the number of keys (quiescent only).
func (t *Tree) Len() int {
	n := 0
	t.Scan(func(_, _ uint64) { n++ })
	return n
}

// KeySum returns the wrapping key sum (quiescent only).
func (t *Tree) KeySum() uint64 {
	var s uint64
	t.Scan(func(k, _ uint64) { s += k })
	return s
}
