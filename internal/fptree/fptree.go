// Package fptree implements the FPTree baseline (Oukid et al., SIGMOD
// 2016), the persistent concurrent B-tree the paper compares its p-trees
// against in Figure 17.
//
// Faithful properties:
//
//   - selective persistence: only leaf nodes live in persistent memory;
//     inner nodes are volatile and rebuilt from the leaf chain on
//     recovery;
//   - unsorted leaves with a presence bitmap: an insert writes the
//     key/value into a free slot, persists it, then atomically commits by
//     flipping the slot's bitmap bit and persisting the bitmap word; a
//     delete just flips and persists the bit;
//   - fingerprints: each leaf stores a one-byte hash per slot, scanned
//     before any key comparison, limiting full key probes.
//
// Substitutions: the original synchronizes
// inner-node access with HTM transactions and leaf locks; portable Go has
// no HTM, so the inner index here is guarded by an RWMutex (readers
// scale, structural modifications serialize) and each leaf by a mutex.
// The inner index is a sorted separator array with binary search rather
// than a full B-tree — equivalent read cost (O(log n)), costlier splits,
// which matters little at Figure 17's scale and update mix.
package fptree

import (
	"sort"
	"sync"

	"repro/internal/pmem"
)

// Persistent leaf layout (64-bit words relative to the leaf offset):
//
//	word 0      bitmap (bit i set = slot i occupied)
//	word 1      next-leaf offset (0 = none)
//	words 2..3  fingerprints, one byte per slot (slots 0..10)
//	words 4..14 keys
//	words 15..25 values
const (
	strideWords = 32
	bitmapWord  = 0
	nextWord    = 1
	fpBase      = 2
	keysBase    = 4
	valsBase    = 15
	leafCap     = 11
)

// NodeWords is the arena stride of one leaf, for callers that size an
// arena from a leaf count.
const NodeWords = strideWords

// fingerprint is the FPTree's one-byte key hash.
func fingerprint(key uint64) byte {
	h := key * 0x9e3779b97f4a7c15
	return byte(h >> 56)
}

// leafMeta is the volatile per-leaf state.
type leafMeta struct {
	mu  sync.Mutex
	off uint64
}

// Tree is an FPTree-style persistent B-tree.
type Tree struct {
	arena *pmem.Arena

	innerMu sync.RWMutex
	// seps[i] is the smallest key of leaves[i+1]; leaves is ordered.
	// leaves[0] covers (-inf, seps[0]).
	seps   []uint64
	leaves []*leafMeta

	headOff uint64 // first leaf (fixed after New, for recovery)
}

// New creates an empty tree in a fresh arena.
func New(arena *pmem.Arena) *Tree {
	if arena.Allocated() != 0 {
		panic("fptree: arena must be fresh")
	}
	t := &Tree{arena: arena}
	off := arena.Alloc(strideWords)
	arena.FlushRange(off, strideWords)
	t.headOff = off
	t.leaves = []*leafMeta{{off: off}}
	return t
}

// Arena returns the backing arena.
func (t *Tree) Arena() *pmem.Arena { return t.arena }

// findLeaf returns the leaf covering key. Caller holds innerMu (R or W).
func (t *Tree) findLeaf(key uint64) *leafMeta {
	i := sort.Search(len(t.seps), func(i int) bool { return key < t.seps[i] })
	return t.leaves[i]
}

// slotSearch scans fingerprints, then keys, for key in the leaf at off.
func (t *Tree) slotSearch(off uint64, key uint64) int {
	bitmap := t.arena.Load(off + bitmapWord)
	fp := fingerprint(key)
	fps0 := t.arena.Load(off + fpBase)
	fps1 := t.arena.Load(off + fpBase + 1)
	for i := 0; i < leafCap; i++ {
		if bitmap&(1<<i) == 0 {
			continue
		}
		var b byte
		if i < 8 {
			b = byte(fps0 >> (8 * i))
		} else {
			b = byte(fps1 >> (8 * (i - 8)))
		}
		if b != fp {
			continue
		}
		if t.arena.Load(off+keysBase+uint64(i)) == key {
			return i
		}
	}
	return -1
}

// Find returns the value for key, if present.
func (t *Tree) Find(key uint64) (uint64, bool) {
	t.innerMu.RLock()
	lm := t.findLeaf(key)
	lm.mu.Lock()
	t.innerMu.RUnlock()
	defer lm.mu.Unlock()
	if i := t.slotSearch(lm.off, key); i >= 0 {
		return t.arena.Load(lm.off + valsBase + uint64(i)), true
	}
	return 0, false
}

// Insert inserts <key, val> if absent, returning (0, true); if present it
// returns the existing value and false. The insert is durable on return.
func (t *Tree) Insert(key, val uint64) (uint64, bool) {
	if key == 0 || key == ^uint64(0) {
		panic("fptree: reserved key")
	}
	for {
		t.innerMu.RLock()
		lm := t.findLeaf(key)
		lm.mu.Lock()
		t.innerMu.RUnlock()

		off := lm.off
		if i := t.slotSearch(off, key); i >= 0 {
			v := t.arena.Load(off + valsBase + uint64(i))
			lm.mu.Unlock()
			return v, false
		}
		bitmap := t.arena.Load(off + bitmapWord)
		slot := -1
		for i := 0; i < leafCap; i++ {
			if bitmap&(1<<i) == 0 {
				slot = i
				break
			}
		}
		if slot >= 0 {
			// Write the pair and persist it, then commit atomically by
			// flipping the bitmap bit (the FPTree's commit point).
			t.arena.Store(off+keysBase+uint64(slot), key)
			t.arena.Store(off+valsBase+uint64(slot), val)
			t.arena.Flush(off + keysBase + uint64(slot))
			t.arena.Flush(off + valsBase + uint64(slot))
			t.setFingerprint(off, slot, fingerprint(key))
			t.arena.Store(off+bitmapWord, bitmap|1<<slot)
			t.arena.Flush(off + bitmapWord) // fp words share the line
			lm.mu.Unlock()
			return 0, true
		}
		// Leaf full: release and retry after splitting under the writer
		// lock (splitLeaf may find another thread already made room).
		lm.mu.Unlock()
		t.splitLeaf(key)
	}
}

func (t *Tree) setFingerprint(off uint64, slot int, fp byte) {
	w := off + fpBase
	shift := uint64(8 * slot)
	if slot >= 8 {
		w++
		shift = uint64(8 * (slot - 8))
	}
	v := t.arena.Load(w)
	v = v&^(0xff<<shift) | uint64(fp)<<shift
	t.arena.Store(w, v)
}

// splitLeaf splits the (full) leaf covering key under the writer lock.
// It reports whether a split happened (false if another thread already
// made room).
func (t *Tree) splitLeaf(key uint64) bool {
	t.innerMu.Lock()
	defer t.innerMu.Unlock()
	i := sort.Search(len(t.seps), func(i int) bool { return key < t.seps[i] })
	lm := t.leaves[i]
	lm.mu.Lock()
	defer lm.mu.Unlock()

	off := lm.off
	bitmap := t.arena.Load(off + bitmapWord)
	occupied := 0
	type kvs struct {
		k, v uint64
		slot int
	}
	var items []kvs
	for s := 0; s < leafCap; s++ {
		if bitmap&(1<<s) != 0 {
			occupied++
			items = append(items, kvs{t.arena.Load(off + keysBase + uint64(s)), t.arena.Load(off + valsBase + uint64(s)), s})
		}
	}
	if occupied < leafCap {
		return false // someone already split or deleted; retry the insert
	}
	sort.Slice(items, func(a, b int) bool { return items[a].k < items[b].k })
	mid := len(items) / 2
	sep := items[mid].k

	// Build the new (right) leaf, persist it fully, then link it into the
	// chain and finally clear the moved slots in the old leaf.
	newOff := t.arena.Alloc(strideWords)
	var newBitmap uint64
	for j, it := range items[mid:] {
		t.arena.Store(newOff+keysBase+uint64(j), it.k)
		t.arena.Store(newOff+valsBase+uint64(j), it.v)
		t.setFingerprint(newOff, j, fingerprint(it.k))
		newBitmap |= 1 << j
	}
	t.arena.Store(newOff+bitmapWord, newBitmap)
	t.arena.Store(newOff+nextWord, t.arena.Load(off+nextWord))
	t.arena.FlushRange(newOff, strideWords)

	t.arena.Store(off+nextWord, newOff)
	t.arena.Flush(off + nextWord)

	oldBitmap := bitmap
	for _, it := range items[mid:] {
		oldBitmap &^= 1 << it.slot
	}
	t.arena.Store(off+bitmapWord, oldBitmap)
	t.arena.Flush(off + bitmapWord)

	// Volatile inner index update.
	nl := &leafMeta{off: newOff}
	t.seps = append(t.seps, 0)
	copy(t.seps[i+1:], t.seps[i:])
	t.seps[i] = sep
	t.leaves = append(t.leaves, nil)
	copy(t.leaves[i+2:], t.leaves[i+1:])
	t.leaves[i+1] = nl
	return true
}

// Delete removes key if present, returning its value and true. Durable on
// return (one bitmap flush).
func (t *Tree) Delete(key uint64) (uint64, bool) {
	if key == 0 || key == ^uint64(0) {
		panic("fptree: reserved key")
	}
	t.innerMu.RLock()
	lm := t.findLeaf(key)
	lm.mu.Lock()
	t.innerMu.RUnlock()
	defer lm.mu.Unlock()

	off := lm.off
	i := t.slotSearch(off, key)
	if i < 0 {
		return 0, false
	}
	v := t.arena.Load(off + valsBase + uint64(i))
	bitmap := t.arena.Load(off + bitmapWord)
	t.arena.Store(off+bitmapWord, bitmap&^(1<<i))
	t.arena.Flush(off + bitmapWord)
	return v, true
}

// Recover rebuilds a tree from the persisted leaf chain after a crash:
// it walks the chain from the head leaf (offset 0), deduplicates keys
// left in two leaves by a crash between a split's copy and its
// bitmap-clear commit, skips empty leaves, and rebuilds the volatile
// inner index from each leaf's minimum key.
func Recover(arena *pmem.Arena) *Tree {
	t := &Tree{arena: arena, headOff: 0}
	type leafInfo struct {
		off    uint64
		minKey uint64
		n      int
	}
	var infos []leafInfo
	seen := make(map[uint64]bool)
	for off := uint64(0); ; {
		minKey := ^uint64(0)
		n := 0
		bitmap := arena.Load(off + bitmapWord)
		for s := 0; s < leafCap; s++ {
			if bitmap&(1<<s) == 0 {
				continue
			}
			k := arena.Load(off + keysBase + uint64(s))
			if seen[k] {
				// A crash interrupted a split after copying this key to
				// the new leaf but before clearing it here; drop the
				// later copy (the pairs are identical).
				bitmap &^= 1 << s
				arena.Store(off+bitmapWord, bitmap)
				arena.Flush(off + bitmapWord)
				continue
			}
			seen[k] = true
			n++
			if k < minKey {
				minKey = k
			}
		}
		infos = append(infos, leafInfo{off, minKey, n})
		next := arena.Load(off + nextWord)
		if next == 0 {
			break
		}
		off = next
	}
	// Skip empty non-head leaves: their key range is unknowable and they
	// hold no data (they stay in the chain as garbage, which is harmless).
	t.leaves = append(t.leaves, &leafMeta{off: infos[0].off})
	for _, info := range infos[1:] {
		if info.n == 0 {
			continue
		}
		t.leaves = append(t.leaves, &leafMeta{off: info.off})
		t.seps = append(t.seps, info.minKey)
	}
	return t
}

// Scan calls fn for every pair in ascending key order (quiescent only).
func (t *Tree) Scan(fn func(k, v uint64)) {
	type kv struct{ k, v uint64 }
	var items []kv
	for _, lm := range t.leaves {
		bitmap := t.arena.Load(lm.off + bitmapWord)
		for s := 0; s < leafCap; s++ {
			if bitmap&(1<<s) != 0 {
				items = append(items, kv{t.arena.Load(lm.off + keysBase + uint64(s)), t.arena.Load(lm.off + valsBase + uint64(s))})
			}
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
