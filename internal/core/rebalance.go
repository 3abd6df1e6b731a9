package core

// fixTagged removes the tagged node n from the tree (paper Figure 7) by
// merging it into its parent — or, if the merged node would exceed b
// children, by splitting the merged contents under a fresh tagged node and
// continuing. Callers hold no locks.
func (th *Thread) fixTagged(n *node) {
	t := th.t
	for {
		if n.isMarked() {
			return
		}
		path := t.search(n.searchKey, n)
		if path.n != n {
			// Another thread already removed the tagged node.
			return
		}
		p, gp := path.p, path.gp
		if p == nil || p == t.entry || gp == nil {
			// A tagged node is never the entry's child (splitting inserts
			// create an untagged root instead); if we observe this state
			// the node was concurrently replaced — re-examine.
			return
		}

		th.lockNode(n)
		th.lockNode(p)
		th.lockNode(gp)
		if n.isMarked() || p.isMarked() || gp.isMarked() || p.tagged() {
			th.unlockAll()
			continue
		}

		// Merge n's single routing key and two children into p's arrays,
		// replacing p's pointer to n.
		nIdx, pIdx := path.nIdx, path.pIdx
		pc := int(p.nchildren)
		var cbuf [maxCap + 1]*node
		var kbuf [maxCap]uint64
		children, keys := cbuf[:0], kbuf[:0]
		nptrs, pptrs, gpptrs := &n.inner().ptrs, &p.inner().ptrs, &gp.inner().ptrs
		for i := 0; i < pc; i++ {
			if i == nIdx {
				children = append(children, nptrs[0].Load(), nptrs[1].Load())
			} else {
				children = append(children, pptrs[i].Load())
			}
		}
		for i := 0; i < nIdx; i++ {
			keys = append(keys, p.keys[i].Load())
		}
		keys = append(keys, n.keys[0].Load())
		for i := nIdx; i < pc-1; i++ {
			keys = append(keys, p.keys[i].Load())
		}

		if len(children) <= t.b {
			// Merge case (Figure 3(5)): one new internal replaces p.
			nn := newInternal(internalKind, keys, children, p.searchKey)
			gpptrs[pIdx].Store(nn)
			n.mark()
			p.mark()
			th.unlockAll()
			return
		}

		// Split case (Figure 6): the merged contents don't fit, so build a
		// two-level subtree: a new parent over two internals that evenly
		// share the merged keys and children. The new parent is itself
		// tagged (to be merged further up) unless it becomes the root.
		lc := (len(children) + 1) / 2
		promoted := keys[lc-1]
		left := newInternal(internalKind, keys[:lc-1], children[:lc], keys[0])
		right := newInternal(internalKind, keys[lc:], children[lc:], promoted)
		topKind := taggedKind
		if gp == t.entry {
			topKind = internalKind
		}
		top := newInternal(topKind, []uint64{promoted}, []*node{left, right}, p.searchKey)
		gpptrs[pIdx].Store(top)
		n.mark()
		p.mark()
		th.unlockAll()
		if topKind != taggedKind {
			return
		}
		n = top
	}
}

// fixUnderfull restores the minimum-size invariant for n (paper Figure 9):
// it either redistributes entries between n and a sibling, or merges them
// (possibly cascading up). The root is allowed to remain underfull.
// Callers hold no locks.
//
// Note on the merge/distribute condition: the paper's pseudocode (line 166)
// reads "if node.size + sibling.size <= 2*MIN then distribute", but its
// own Figure 3(2) merges nodes of sizes 1 and 2 (total 3 <= 4 = 2*MIN),
// and an even split of fewer than 2*MIN entries necessarily leaves one
// node underfull. We therefore use the condition consistent with the
// figure and with Larsen & Fagerberg's relaxed (a,b)-tree: distribute when
// total >= 2*MIN (both halves end up >= MIN), merge otherwise (the merged
// node has < 2*MIN <= b entries, so it fits).
func (th *Thread) fixUnderfull(n *node) {
	t := th.t
	for {
		if n == t.entry || n == t.root() {
			return // The root may be underfull.
		}
		path := t.search(n.searchKey, n)
		if path.n != n {
			return // n is no longer in the tree.
		}
		p, gp, nIdx, pIdx := path.p, path.gp, path.nIdx, path.pIdx
		if p == nil || p == t.entry || gp == nil {
			// n became the root between the check above and the search.
			continue
		}
		if int(p.nchildren) < 2 {
			// Parent itself is underfull (a cascading merge left it with
			// one child); its own fixUnderfull must run first. Retry.
			yield_()
			continue
		}

		sIdx := nIdx - 1
		if nIdx == 0 {
			sIdx = 1
		}
		sibling := p.inner().ptrs[sIdx].Load()

		// Lock order: bottom-to-top, left-to-right (deadlock freedom,
		// paper §3.3.5).
		if sIdx < nIdx {
			th.lockNode(sibling)
			th.lockNode(n)
		} else {
			th.lockNode(n)
			th.lockNode(sibling)
		}
		th.lockNode(p)
		th.lockNode(gp)

		if sizeOf(n) >= t.a {
			// Another thread fixed it (e.g. an insert refilled the leaf).
			th.unlockAll()
			return
		}
		// An underfull parent must be repaired first — unless it is the
		// root, which may stay below a (with a > 2 nobody else would ever
		// grow it, and this loop would wait forever).
		if (int(p.nchildren) < t.a && gp != t.entry) ||
			n.isMarked() || sibling.isMarked() || p.isMarked() || gp.isMarked() ||
			n.tagged() || sibling.tagged() || p.tagged() {
			th.unlockAll()
			yield_()
			continue
		}

		left, right := n, sibling
		lIdx := nIdx
		if sIdx < nIdx {
			left, right, lIdx = sibling, n, sIdx
		}
		sepIdx := lIdx // routing key in p separating left from right
		sep := p.keys[sepIdx].Load()
		total := sizeOf(n) + sizeOf(sibling)

		if total >= 2*t.a {
			t.distribute(th, left, right, p, gp, lIdx, sepIdx, pIdx, sep)
			return
		}
		t.merge(th, left, right, p, gp, lIdx, sepIdx, pIdx, sep)
		return
	}
}

// distribute evenly reshares the contents of left and right between two
// new nodes, replacing the parent to update the separator key (Figure 8).
// All four nodes are locked; distribute publishes, marks, and unlocks.
func (t *Tree) distribute(th *Thread, left, right, p, gp *node, lIdx, sepIdx, pIdx int, sep uint64) {
	var newLeft, newRight *node
	var newSep uint64
	var ll, rl *leaf
	leaves := left.isLeaf()
	if leaves {
		ll, rl = left.leaf(), right.leaf()
		var buf [2 * maxCap]kv
		items := gatherLeaf(t, rl, gatherLeaf(t, ll, buf[:0]))
		sortKVs(items)
		lc := (len(items) + 1) / 2
		newSep = items[lc].k
		// Version windows around the replacement (closed after the marks
		// below): snapshot scans arbitrate against the stamp read here.
		ll.ver.Add(1)
		rl.ver.Add(1)
		c := t.rqp.ReadStamp()
		newLeft = t.newLeaf(items[:lc], items[0].k)
		newRight = t.newLeaf(items[lc:], newSep)
		t.rqInheritDistribute(ll, rl, newLeft.leaf(), newRight.leaf(), newSep, c)
	} else {
		var cbuf [2 * maxCap]*node
		var kbuf [2 * maxCap]uint64
		children, keys := gatherInternal(left, right, sep, cbuf[:0], kbuf[:0])
		lc := (len(children) + 1) / 2
		newSep = keys[lc-1]
		newLeft = newInternal(internalKind, keys[:lc-1], children[:lc], keys[0])
		newRight = newInternal(internalKind, keys[lc:], children[lc:], newSep)
	}

	pc := int(p.nchildren)
	var pcbuf [maxCap]*node
	var pkbuf [maxCap]uint64
	pchildren, pkeys := pcbuf[:0], pkbuf[:0]
	pptrs := &p.inner().ptrs
	for i := 0; i < pc; i++ {
		switch i {
		case lIdx:
			pchildren = append(pchildren, newLeft)
		case lIdx + 1:
			pchildren = append(pchildren, newRight)
		default:
			pchildren = append(pchildren, pptrs[i].Load())
		}
	}
	for i := 0; i < pc-1; i++ {
		if i == sepIdx {
			pkeys = append(pkeys, newSep)
		} else {
			pkeys = append(pkeys, p.keys[i].Load())
		}
	}
	newParent := newInternal(p.kind, pkeys, pchildren, p.searchKey)

	gp.inner().ptrs[pIdx].Store(newParent)
	left.mark()
	right.mark()
	p.mark()
	if leaves {
		ll.ver.Add(1)
		rl.ver.Add(1)
	}
	th.unlockAll()
}

// merge combines left and right into one node, shrinking the parent by one
// child (Figure 3(2)); if the parent was the root with exactly two
// children, the merged node becomes the new root (the tree height
// shrinks). All four nodes are locked; merge publishes, marks, unlocks,
// and recursively fixes any underfull node it created.
func (t *Tree) merge(th *Thread, left, right, p, gp *node, lIdx, sepIdx, pIdx int, sep uint64) {
	var nn *node
	var ll, rl *leaf
	leaves := left.isLeaf()
	if leaves {
		ll, rl = left.leaf(), right.leaf()
		var buf [2 * maxCap]kv
		items := gatherLeaf(t, rl, gatherLeaf(t, ll, buf[:0]))
		// Version windows around the replacement (closed after the
		// marks): snapshot scans arbitrate against the stamp read here.
		ll.ver.Add(1)
		rl.ver.Add(1)
		c := t.rqp.ReadStamp()
		nn = t.newLeaf(items, sep)
		t.rqInheritMerge(ll, rl, nn.leaf(), c)
	} else {
		var cbuf [2 * maxCap]*node
		var kbuf [2 * maxCap]uint64
		children, keys := gatherInternal(left, right, sep, cbuf[:0], kbuf[:0])
		nn = newInternal(internalKind, keys, children, sep)
	}
	closeWindows := func() {
		if leaves {
			ll.ver.Add(1)
			rl.ver.Add(1)
		}
	}

	if gp == t.entry && int(p.nchildren) == 2 {
		// p was the root and is now down to one child: collapse a level.
		t.entry.inner().ptrs[0].Store(nn)
		left.mark()
		right.mark()
		p.mark()
		closeWindows()
		th.unlockAll()
		return
	}

	pc := int(p.nchildren)
	var pcbuf [maxCap]*node
	var pkbuf [maxCap]uint64
	pchildren, pkeys := pcbuf[:0], pkbuf[:0]
	pptrs := &p.inner().ptrs
	for i := 0; i < pc; i++ {
		switch i {
		case lIdx:
			pchildren = append(pchildren, nn)
		case lIdx + 1:
			// right's slot: dropped.
		default:
			pchildren = append(pchildren, pptrs[i].Load())
		}
	}
	for i := 0; i < pc-1; i++ {
		if i != sepIdx {
			pkeys = append(pkeys, p.keys[i].Load())
		}
	}
	newParent := newInternal(p.kind, pkeys, pchildren, p.searchKey)

	gp.inner().ptrs[pIdx].Store(newParent)
	left.mark()
	right.mark()
	p.mark()
	closeWindows()
	th.unlockAll()

	// The merged node may still be underfull (total < 2a can be < a), and
	// the shrunken parent may have dropped below a children. The parent
	// MUST be repaired first: when it was left with a single child (pc
	// was 2), fixUnderfull(nn) would find its parent with < 2 children
	// and spin waiting for "its own fixUnderfull" — which would be this
	// very thread, queued behind the spin. Per-key deletes rarely merge
	// a pair whose total is below a, but batched deletes empty whole
	// leaves in one lock hold and hit this self-wait readily.
	if int(newParent.nchildren) < t.a {
		th.fixUnderfull(newParent)
	}
	if sizeOf(nn) < t.a {
		th.fixUnderfull(nn)
	}
}

// gatherLeaf appends a locked leaf's key-value pairs to items. Callers on
// the structural paths pass a fixed-size array on their stack.
func gatherLeaf(t *Tree, l *leaf, items []kv) []kv {
	for i := 0; i < t.b; i++ {
		if k := l.keys[i].Load(); k != emptyKey {
			items = append(items, kv{k, l.vals[i].Load()})
		}
	}
	return items
}

// gatherInternal concatenates two locked internal siblings' children and
// routing keys, with the parent separator between them, onto the
// caller's (stack) buffers.
func gatherInternal(left, right *node, sep uint64, children []*node, keys []uint64) ([]*node, []uint64) {
	lc, rc := int(left.nchildren), int(right.nchildren)
	lptrs, rptrs := &left.inner().ptrs, &right.inner().ptrs
	for i := 0; i < lc; i++ {
		children = append(children, lptrs[i].Load())
	}
	for i := 0; i < lc-1; i++ {
		keys = append(keys, left.keys[i].Load())
	}
	keys = append(keys, sep)
	for i := 0; i < rc; i++ {
		children = append(children, rptrs[i].Load())
	}
	for i := 0; i < rc-1; i++ {
		keys = append(keys, right.keys[i].Load())
	}
	return children, keys
}
