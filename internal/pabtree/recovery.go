package pabtree

import (
	"repro/internal/abalg"
	"repro/internal/pmem"
)

// Recover rebuilds a Tree from the persisted image in arena after a crash
// (paper §5): it walks the tree from the entry node's fixed offset and
//
//   - resets each reachable node's volatile fields (lock state, version,
//     marked bit) and recomputes leaf sizes from the persisted keys;
//   - strips link-and-persist mark bits from child pointers (a marked
//     pointer in the image means the crash hit between the pointer write
//     and its unmark; the flush preceded the unmark, so the target is
//     durable and the mark is just stale);
//   - rebuilds the node-slot free list from reachability (every allocated
//     slot not reachable from the entry is free);
//   - completes rebalancing the crash interrupted: persisted tagged nodes
//     are merged away and persisted underfull nodes are refilled, so the
//     recovered tree satisfies every invariant of Theorem 5.4, not just
//     the relaxed ones.
//
// The caller must pass the same Options the tree was built with, and must
// call Recover only after arena.Crash (or on a quiescent arena).
func Recover(arena *pmem.Arena, opts ...Option) *Tree {
	cfg := config{a: 2, b: maxB}
	for _, o := range opts {
		o(&cfg)
	}
	t := newTreeShell(arena, cfg)

	slots := arena.Allocated() / NodeWords
	for c := uint64(0); c*chunkSlots < slots; c++ {
		t.installChunk(c)
	}
	visited := make([]bool, slots)
	var tagged, underfull []uint64

	var walk func(off uint64, lo uint64, isRoot bool)
	walk = func(off uint64, lo uint64, isRoot bool) {
		visited[off/NodeWords] = true
		v := t.vn(off)
		v.marked.Store(false)
		v.ver.Store(0)
		v.searchKey = lo

		meta := t.arena.Load(off + metaWord)
		if kindOf(meta) == abalg.LeafKind {
			count := 0
			for i := 0; i < t.b; i++ {
				if t.leafKey(off, i) != emptyKey {
					count++
				}
			}
			v.size.Store(uint32(count))
			if !isRoot && count < t.a {
				underfull = append(underfull, off)
			}
			return
		}
		if kindOf(meta) == abalg.TaggedKind {
			tagged = append(tagged, off)
		}
		nc := nchildrenOf(meta)
		if !isRoot && off != t.entryOff && kindOf(meta) != abalg.TaggedKind && nc < t.a {
			underfull = append(underfull, off)
		}
		childLo := lo
		for i := 0; i < nc; i++ {
			w := childOff(off, i)
			raw := t.arena.Load(w)
			if raw&markBit != 0 {
				raw &^= markBit
				t.arena.Store(w, raw)
				t.arena.Flush(w)
			}
			if i > 0 {
				childLo = t.routingKey(off, i-1)
			}
			walk(raw, childLo, false)
		}
	}

	walk(t.entryOff, 1, false)
	// The direct child of the entry is the root; re-mark it as such for
	// the underfull exemption by removing it from the fix list.
	root := t.loadChild(t.entryOff, 0)
	filtered := underfull[:0]
	for _, off := range underfull {
		if off != root {
			filtered = append(filtered, off)
		}
	}
	underfull = filtered

	// Free list: every allocated, unvisited slot (skipping the reserved
	// null slot 0 and the entry) is recyclable.
	for s := uint64(2); s < slots; s++ {
		if !visited[s] {
			t.pushFree(uint32(s))
		}
	}

	// Complete interrupted rebalancing. Tags first: fixUnderfull refuses
	// to operate near tagged nodes.
	th := t.NewThread()
	for _, off := range tagged {
		abalg.FixTagged(th, off)
	}
	for _, off := range underfull {
		if th.Size(off) < t.a {
			abalg.FixUnderfull(th, off)
		}
	}
	return t
}
