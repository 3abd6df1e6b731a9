package pabtree

import "runtime"

// fixTagged removes the tagged node at off (paper Figure 7 with §5's
// persistence: new nodes are flushed before the grandparent pointer is
// published via link-and-persist). Callers hold no locks.
func (th *Thread) fixTagged(off uint64) {
	t := th.t
	for {
		nv := t.vn(off)
		if nv.marked.Load() {
			return
		}
		path := t.search(nv.searchKey, off)
		if path.n != off {
			return
		}
		p, gp := path.p, path.gp
		if p == 0 || p == t.entryOff || gp == 0 {
			return
		}

		th.lockNode(off)
		th.lockNode(p)
		th.lockNode(gp)
		pv, gv := t.vn(p), t.vn(gp)
		if nv.marked.Load() || pv.marked.Load() || gv.marked.Load() || kindOf(t.meta(p)) == taggedKind {
			th.unlockAll()
			continue
		}

		nIdx, pIdx := path.nIdx, path.pIdx
		pc := nchildrenOf(t.meta(p))
		children := make([]uint64, 0, pc+1)
		keys := make([]uint64, 0, pc)
		for i := 0; i < pc; i++ {
			if i == nIdx {
				children = append(children, t.loadChild(off, 0), t.loadChild(off, 1))
			} else {
				children = append(children, t.loadChild(p, i))
			}
		}
		for i := 0; i < nIdx; i++ {
			keys = append(keys, t.routingKey(p, i))
		}
		keys = append(keys, t.routingKey(off, 0))
		for i := nIdx; i < pc-1; i++ {
			keys = append(keys, t.routingKey(p, i))
		}

		if len(children) <= t.b {
			nn := t.allocSlot()
			t.initInternalNode(nn, internalKind, keys, children, pv.searchKey)
			t.setChildPersist(gp, pIdx, nn)
			nv.marked.Store(true)
			pv.marked.Store(true)
			th.retire(off)
			th.retire(p)
			th.unlockAll()
			return
		}

		// Split case (Figure 6).
		lc := (len(children) + 1) / 2
		promoted := keys[lc-1]
		leftOff := t.allocSlot()
		rightOff := t.allocSlot()
		topOff := t.allocSlot()
		t.initInternalNode(leftOff, internalKind, keys[:lc-1], children[:lc], pv.searchKey)
		t.initInternalNode(rightOff, internalKind, keys[lc:], children[lc:], promoted)
		topKind := taggedKind
		if gp == t.entryOff {
			topKind = internalKind
		}
		t.initInternalNode(topOff, topKind, []uint64{promoted}, []uint64{leftOff, rightOff}, pv.searchKey)
		t.setChildPersist(gp, pIdx, topOff)
		nv.marked.Store(true)
		pv.marked.Store(true)
		th.retire(off)
		th.retire(p)
		th.unlockAll()
		if topKind != taggedKind {
			return
		}
		off = topOff
	}
}

// fixUnderfull restores the minimum-size invariant for the node at off
// (paper Figure 9; same merge/distribute condition note as internal/core).
// Callers hold no locks.
func (th *Thread) fixUnderfull(off uint64) {
	t := th.t
	for {
		if off == t.entryOff || off == t.loadChild(t.entryOff, 0) {
			return // the root may be underfull
		}
		nv := t.vn(off)
		path := t.search(nv.searchKey, off)
		if path.n != off {
			return
		}
		p, gp, nIdx, pIdx := path.p, path.gp, path.nIdx, path.pIdx
		if p == 0 || p == t.entryOff || gp == 0 {
			continue // became the root; re-check
		}
		if nchildrenOf(t.meta(p)) < 2 {
			t.crashCheck()
			yield()
			continue
		}

		sIdx := nIdx - 1
		if nIdx == 0 {
			sIdx = 1
		}
		sibling := t.loadChild(p, sIdx)

		if sIdx < nIdx {
			th.lockNode(sibling)
			th.lockNode(off)
		} else {
			th.lockNode(off)
			th.lockNode(sibling)
		}
		th.lockNode(p)
		th.lockNode(gp)

		if t.sizeOf(off) >= t.a {
			th.unlockAll()
			return
		}
		sv, pv, gv := t.vn(sibling), t.vn(p), t.vn(gp)
		if nchildrenOf(t.meta(p)) < t.a ||
			nv.marked.Load() || sv.marked.Load() || pv.marked.Load() || gv.marked.Load() ||
			kindOf(t.meta(off)) == taggedKind || kindOf(t.meta(sibling)) == taggedKind || kindOf(t.meta(p)) == taggedKind {
			th.unlockAll()
			t.crashCheck()
			yield()
			continue
		}

		left, right := off, sibling
		lIdx := nIdx
		if sIdx < nIdx {
			left, right, lIdx = sibling, off, sIdx
		}
		sepIdx := lIdx
		sep := t.routingKey(p, sepIdx)
		total := t.sizeOf(off) + t.sizeOf(sibling)

		if total >= 2*t.a {
			t.distribute(th, left, right, p, gp, lIdx, sepIdx, pIdx, sep)
			return
		}
		t.merge(th, left, right, p, gp, lIdx, sepIdx, pIdx, sep)
		return
	}
}

// sizeOf returns occupancy: key count for leaves, child count otherwise.
func (t *Tree) sizeOf(off uint64) int {
	if t.isLeaf(off) {
		return int(t.vn(off).size.Load())
	}
	return nchildrenOf(t.meta(off))
}

// gatherInternal concatenates two internal siblings' children and routing
// keys with the parent separator between them.
func (t *Tree) gatherInternal(left, right uint64, sep uint64) ([]uint64, []uint64) {
	lc, rc := nchildrenOf(t.meta(left)), nchildrenOf(t.meta(right))
	children := make([]uint64, 0, lc+rc)
	keys := make([]uint64, 0, lc+rc-1)
	for i := 0; i < lc; i++ {
		children = append(children, t.loadChild(left, i))
	}
	for i := 0; i < lc-1; i++ {
		keys = append(keys, t.routingKey(left, i))
	}
	keys = append(keys, sep)
	for i := 0; i < rc; i++ {
		children = append(children, t.loadChild(right, i))
	}
	for i := 0; i < rc-1; i++ {
		keys = append(keys, t.routingKey(right, i))
	}
	return children, keys
}

// distribute evenly reshares the contents of left and right between two
// new flushed nodes, replacing the parent to update the separator key
// (Figure 8). All four nodes are locked; distribute publishes via
// link-and-persist, marks and retires the replaced nodes, and unlocks.
func (t *Tree) distribute(th *Thread, left, right, p, gp uint64, lIdx, sepIdx, pIdx int, sep uint64) {
	var newLeft, newRight uint64
	var newSep uint64
	leaves := t.isLeaf(left)
	if leaves {
		items := t.gatherLeaf(left)
		items = append(items, t.gatherLeaf(right)...)
		sortKVs(items)
		lc := (len(items) + 1) / 2
		newSep = items[lc].k
		// Version windows around the replacement (closed after the marks
		// below): snapshot scans arbitrate against the stamp read here.
		t.vn(left).ver.Add(1)
		t.vn(right).ver.Add(1)
		c := t.rqp.ReadStamp()
		newLeft = t.allocSlot()
		newRight = t.allocSlot()
		t.initLeaf(newLeft, items[:lc], t.vn(left).searchKey)
		t.initLeaf(newRight, items[lc:], newSep)
		t.rqInheritDistribute(left, right, newLeft, newRight, newSep, c)
	} else {
		children, keys := t.gatherInternal(left, right, sep)
		lc := (len(children) + 1) / 2
		newSep = keys[lc-1]
		newLeft = t.allocSlot()
		newRight = t.allocSlot()
		t.initInternalNode(newLeft, internalKind, keys[:lc-1], children[:lc], t.vn(left).searchKey)
		t.initInternalNode(newRight, internalKind, keys[lc:], children[lc:], newSep)
	}

	pc := nchildrenOf(t.meta(p))
	pchildren := make([]uint64, 0, pc)
	pkeys := make([]uint64, 0, pc-1)
	for i := 0; i < pc; i++ {
		switch i {
		case lIdx:
			pchildren = append(pchildren, newLeft)
		case lIdx + 1:
			pchildren = append(pchildren, newRight)
		default:
			pchildren = append(pchildren, t.loadChild(p, i))
		}
	}
	for i := 0; i < pc-1; i++ {
		if i == sepIdx {
			pkeys = append(pkeys, newSep)
		} else {
			pkeys = append(pkeys, t.routingKey(p, i))
		}
	}
	newParent := t.allocSlot()
	t.initInternalNode(newParent, kindOf(t.meta(p)), pkeys, pchildren, t.vn(p).searchKey)

	t.setChildPersist(gp, pIdx, newParent)
	t.vn(left).marked.Store(true)
	t.vn(right).marked.Store(true)
	t.vn(p).marked.Store(true)
	if leaves {
		t.vn(left).ver.Add(1)
		t.vn(right).ver.Add(1)
	}
	th.retire(left)
	th.retire(right)
	th.retire(p)
	th.unlockAll()
}

func (t *Tree) merge(th *Thread, left, right, p, gp uint64, lIdx, sepIdx, pIdx int, sep uint64) {
	nn := t.allocSlot()
	leaves := t.isLeaf(left)
	if leaves {
		items := t.gatherLeaf(left)
		items = append(items, t.gatherLeaf(right)...)
		// Version windows around the replacement (closed after the
		// marks): snapshot scans arbitrate against the stamp read here.
		t.vn(left).ver.Add(1)
		t.vn(right).ver.Add(1)
		c := t.rqp.ReadStamp()
		t.initLeaf(nn, items, t.vn(left).searchKey)
		t.rqInheritMerge(left, right, nn, c)
	} else {
		children, keys := t.gatherInternal(left, right, sep)
		t.initInternalNode(nn, internalKind, keys, children, t.vn(left).searchKey)
	}
	closeWindows := func() {
		if leaves {
			t.vn(left).ver.Add(1)
			t.vn(right).ver.Add(1)
		}
	}

	if gp == t.entryOff && nchildrenOf(t.meta(p)) == 2 {
		t.setChildPersist(t.entryOff, 0, nn)
		t.vn(left).marked.Store(true)
		t.vn(right).marked.Store(true)
		t.vn(p).marked.Store(true)
		closeWindows()
		th.retire(left)
		th.retire(right)
		th.retire(p)
		th.unlockAll()
		return
	}

	pc := nchildrenOf(t.meta(p))
	pchildren := make([]uint64, 0, pc-1)
	pkeys := make([]uint64, 0, pc-2)
	for i := 0; i < pc; i++ {
		switch i {
		case lIdx:
			pchildren = append(pchildren, nn)
		case lIdx + 1:
			// right's slot: dropped
		default:
			pchildren = append(pchildren, t.loadChild(p, i))
		}
	}
	for i := 0; i < pc-1; i++ {
		if i != sepIdx {
			pkeys = append(pkeys, t.routingKey(p, i))
		}
	}
	newParent := t.allocSlot()
	t.initInternalNode(newParent, kindOf(t.meta(p)), pkeys, pchildren, t.vn(p).searchKey)

	t.setChildPersist(gp, pIdx, newParent)
	t.vn(left).marked.Store(true)
	t.vn(right).marked.Store(true)
	t.vn(p).marked.Store(true)
	closeWindows()
	th.retire(left)
	th.retire(right)
	th.retire(p)
	th.unlockAll()

	// Parent first: a single-child parent would make fixUnderfull(nn)
	// spin waiting for the parent's repair, which is this same thread's
	// next call (see internal/core/rebalance.go merge for the full
	// argument; batched deletes hit the self-wait readily).
	if nchildrenOf(t.meta(newParent)) < t.a {
		th.fixUnderfull(newParent)
	}
	if t.sizeOf(nn) < t.a {
		th.fixUnderfull(nn)
	}
}

// yield cedes the processor once; used by retry loops waiting for another
// thread's structural fix.
func yield() { runtime.Gosched() }
