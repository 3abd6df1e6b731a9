package pabtree

import (
	"runtime"

	"repro/internal/abalg"
	"repro/internal/pmem"
	"repro/internal/rq"
)

// The abalg.Store seam over arena slots (see the interface for each
// method's contract). Here a node reference is an arena offset (0 =
// none), and the seam carries the structural half of the package
// comment's flush discipline: NewLeaf/NewInternal flush every word they
// write before returning, SetChild is link-and-persist, and Unlink also
// queues the slot for epoch reclamation. TryLock and UnlockAll are in
// thread.go; PutLocked and DeleteLocked, the per-key locked-leaf
// writes carrying their flushes, in ops.go.

func (th *Thread) Degree() (a, b int)                  { return th.t.a, th.t.b }
func (th *Thread) Entry() uint64                       { return th.t.entryOff }
func (th *Thread) Kind(off uint64) abalg.Kind          { return kindOf(th.t.meta(off)) }
func (th *Thread) RoutingKey(off uint64, i int) uint64 { return th.t.routingKey(off, i) }
func (th *Thread) Child(off uint64, i int) uint64      { return th.t.loadChild(off, i) }
func (th *Thread) SearchKey(off uint64) uint64         { return th.t.vn(off).searchKey }
func (th *Thread) Marked(off uint64) bool              { return th.t.vn(off).marked.Load() }
func (th *Thread) BumpVer(off uint64)                  { th.t.vn(off).ver.Add(1) }
func (th *Thread) LeafState(off uint64) *rq.LeafState  { return &th.t.vn(off).LeafState }
func (th *Thread) RQ() *rq.Provider                    { return th.t.rqp }
func (th *Thread) SetChild(p uint64, i int, c uint64)  { th.t.setChildPersist(p, i, c) }
func (th *Thread) Scratch() *abalg.Scratch[uint64]     { return &th.scratch }
func (th *Thread) Elim() bool                          { return th.t.elim }
func (th *Thread) Eliminated(op abalg.OpKind)          { th.t.elims[op].Add(1) }

// AppendLeaf observes an injected crash when it finds a version window
// open, like Pause: a reader retrying until the window closes may be
// waiting on a writer that will never close it.
func (th *Thread) AppendLeaf(off uint64, items []rq.Pair, lo, hi uint64) ([]rq.Pair, uint64, uint64, bool, uint64, *rq.Version) {
	v := th.t.vn(off)
	before, marked, stamp, chain := v.ver.Load(), v.marked.Load(), v.TS.Load(), v.Vers.Load()
	if before&1 == 1 {
		th.t.crashCheck()
	}
	items = th.t.appendPairs(off, items, lo, hi)
	return items, before, v.ver.Load(), marked, stamp, chain
}

func (th *Thread) GatherInternal(off uint64, children, keys []uint64) ([]uint64, []uint64) {
	t, nc := th.t, nchildrenOf(th.t.meta(off))
	for i := 0; i < nc; i++ {
		children = append(children, t.loadChild(off, i))
	}
	for i := 0; i < nc-1; i++ {
		keys = append(keys, t.routingKey(off, i))
	}
	return children, keys
}

// Unlink marks the node and hands its slot to the epoch manager; it
// returns to the free list after the grace period. The unlinking pointer
// write is already flushed (SetChild), so the slot is unreachable in the
// persisted image as well.
func (th *Thread) Unlink(off uint64) {
	th.t.vn(off).marked.Store(true)
	th.eh.Retire(uint32(off / NodeWords))
}

// Pause lets a waiter observe an injected crash instead of spinning
// behind a lock holder that will never finish.
func (th *Thread) Pause() {
	th.t.crashCheck()
	runtime.Gosched()
}

func (th *Thread) NewLeaf(items []rq.Pair, searchKey uint64) uint64 {
	off := th.t.allocSlot()
	th.t.initLeaf(off, items, searchKey)
	return off
}

func (th *Thread) NewInternal(k abalg.Kind, keys, children []uint64, searchKey uint64) uint64 {
	off := th.t.allocSlot()
	th.t.initInternalNode(off, k, keys, children, searchKey)
	return off
}

func (th *Thread) Size(off uint64) int {
	if th.t.isLeaf(off) {
		return th.t.vn(off).leafSize()
	}
	return nchildrenOf(th.t.meta(off))
}

// Branch and Route share the store's one routing loop, Tree.route,
// which inlines into both; Route then reads the child's kind.
func (th *Thread) Branch(off, key, lo, hi uint64) (uint64, int, uint64, uint64) {
	t := th.t
	i, lo, hi := t.route(off, t.meta(off), key, lo, hi)
	return t.loadChild(off, i), i, lo, hi
}

func (th *Thread) Route(off, key, lo, hi uint64) (uint64, int, uint64, uint64, bool) {
	t := th.t
	i, lo, hi := t.route(off, t.meta(off), key, lo, hi)
	c := t.loadChild(off, i)
	return c, i, lo, hi, t.isLeaf(c)
}

// Touch loads one word of each of the slot's three arena lines (slots
// are line-aligned) and the version of its volatile header, which has a
// line of its own.
func (th *Thread) Touch(off uint64) {
	a := th.t.arena
	a.Load(off)
	a.Load(off + pmem.LineWords)
	a.Load(off + 2*pmem.LineWords)
	th.t.vn(off).ver.Load()
}

// Record reads the slot record (vnode) between two equal even versions:
// the pair in the slot it names, the key from delKey for a delete (its
// key word holds the durable ⊥), and Ver the version minus one. As in
// internal/core, that Ver is exact: every version window on an unmarked
// leaf publishes, and every other window marks the leaf, so a marked
// leaf serves none. The wait observes an injected crash.
func (th *Thread) Record(leaf uint64) (key, val uint64, k abalg.RecKind, ver uint64) {
	t, lv := th.t, th.t.vn(leaf)
	for spins := 0; ; abalg.SpinPause(&spins) {
		if v1 := lv.ver.Load(); v1&1 == 0 {
			key, val, k, ver = 0, 0, 0, 0
			if i, kind := abalg.UnpackRec(lv.size.Load()); i >= 0 && !lv.marked.Load() {
				key, val, k, ver = t.leafKey(leaf, i), t.leafVal(leaf, i), kind, v1-1
				if kind == abalg.RecDelete {
					key = lv.delKey.Load()
				}
			}
			if lv.ver.Load() == v1 {
				return key, val, k, ver
			}
		}
		t.crashCheck()
	}
}
