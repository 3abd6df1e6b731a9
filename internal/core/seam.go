package core

import (
	"runtime"

	"repro/internal/abalg"
	"repro/internal/rq"
)

// The abalg.Store seam over Go-heap nodes (see the interface for each
// method's contract). Here a node reference is a *node, publication is
// an atomic pointer store, and unlinked nodes are left to the garbage
// collector. TryLock and UnlockAll are in thread.go; PutLocked and
// DeleteLocked, the per-key locked-leaf writes, in ops.go.

func (th *Thread) Degree() (a, b int)               { return th.t.a, th.t.b }
func (th *Thread) Entry() *node                     { return th.t.entry }
func (th *Thread) Kind(n *node) abalg.Kind          { return n.kind }
func (th *Thread) RoutingKey(n *node, i int) uint64 { return n.keys[i].Load() }
func (th *Thread) Child(n *node, i int) *node       { return n.inner().ptrs[i].Load() }
func (th *Thread) SearchKey(n *node) uint64         { return n.searchKey }
func (th *Thread) Marked(n *node) bool              { return n.isMarked() }
func (th *Thread) Unlink(n *node)                   { n.mark() }
func (th *Thread) BumpVer(n *node)                  { n.leaf().ver.Add(1) }
func (th *Thread) LeafState(n *node) *rq.LeafState  { return &n.leaf().LeafState }
func (th *Thread) RQ() *rq.Provider                 { return th.t.rqp }
func (th *Thread) SetChild(p *node, i int, c *node) { p.inner().ptrs[i].Store(c) }
func (th *Thread) Pause()                           { runtime.Gosched() }
func (th *Thread) Elim() bool                       { return th.t.elim }
func (th *Thread) Eliminated(op abalg.OpKind)       { th.t.elims[op].Add(1) }
func (th *Thread) Scratch() *abalg.Scratch[*node]   { return &th.scratch }
func (th *Thread) Touch(n *node)                    { n.touch() }

func (th *Thread) Size(n *node) int {
	if n.isLeaf() {
		return n.size()
	}
	return int(n.nchildren)
}

// AppendLeaf skips the tombstone, as every reader of a leaf does.
func (th *Thread) AppendLeaf(n *node, items []rq.Pair, lo, hi uint64) ([]rq.Pair, uint64, uint64, bool, uint64, *rq.Version) {
	l := n.leaf()
	before, marked, stamp, chain := l.ver.Load(), l.isMarked(), l.TS.Load(), l.Vers.Load()
	items = th.t.appendPairs(items, l, lo, hi)
	return items, before, l.ver.Load(), marked, stamp, chain
}

func (th *Thread) GatherInternal(n *node, children []*node, keys []uint64) ([]*node, []uint64) {
	ptrs, nc := &n.inner().ptrs, int(n.nchildren)
	for i := 0; i < nc; i++ {
		children = append(children, ptrs[i].Load())
	}
	for i := 0; i < nc-1; i++ {
		keys = append(keys, n.keys[i].Load())
	}
	return children, keys
}

func (th *Thread) NewLeaf(items []rq.Pair, searchKey uint64) *node {
	return th.t.newLeaf(items, searchKey)
}

func (th *Thread) NewInternal(k abalg.Kind, keys []uint64, children []*node, searchKey uint64) *node {
	return newInternal(k, keys, children, searchKey)
}

// Branch and Route share the store's one routing loop, node.route,
// which inlines into both; Route then reads the child's kind.
func (th *Thread) Branch(n *node, key, lo, hi uint64) (*node, int, uint64, uint64) {
	i, lo, hi := n.route(key, lo, hi)
	return n.inner().ptrs[i].Load(), i, lo, hi
}

func (th *Thread) Route(n *node, key, lo, hi uint64) (*node, int, uint64, uint64, bool) {
	i, lo, hi := n.route(key, lo, hi)
	c := n.inner().ptrs[i].Load()
	return c, i, lo, hi, c.isLeaf()
}

// Record reads the slot record (node.go) between two equal even
// versions: the pair in the slot it names, and Ver the version minus
// one.
func (th *Thread) Record(n *node) (key, val uint64, k abalg.RecKind, ver uint64) {
	l := n.leaf()
	for spins := 0; ; abalg.SpinPause(&spins) {
		if v1 := l.ver.Load(); v1&1 == 0 {
			key, val, k, ver = 0, 0, 0, 0
			s := l.state.Load()
			if i, kind := abalg.UnpackRec(s); i >= 0 && s&markedBit == 0 {
				key, val, k, ver = l.keys[i].Load(), l.vals[i].Load(), kind, v1-1
			}
			if l.ver.Load() == v1 {
				return key, val, k, ver
			}
		}
	}
}
