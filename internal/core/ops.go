package core

// Find returns the value associated with key, if present (paper §3.2).
// Finds take no locks and never restart from the root.
func (th *Thread) Find(key uint64) (uint64, bool) {
	checkKey(key)
	t := th.t
	return t.leafSearch(t.search(key, nil).n, key)
}

// Insert inserts <key, val> if key is absent and returns (0, true).
// If key is present, the tree is unchanged and Insert returns the existing
// value and false (the paper's insert semantics, §3).
func (th *Thread) Insert(key, val uint64) (uint64, bool) {
	checkKey(key)
	t := th.t
	for {
		path := t.search(key, nil)
		leaf := path.n

		// Pre-lock read phase. The OCC-ABtree retries leafSearch until it
		// has a consistent snapshot; the Elim-ABtree scans once and, on
		// interference, goes straight to lockOrElim (§4.1).
		if t.elim {
			v, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && found {
				return v, false
			}
			acquired, ev := th.lockOrElimKind(leaf, key, OpInsert)
			if !acquired {
				// Eliminated: linearized immediately after the record's
				// operation; key is (momentarily) present with rec.Val.
				t.elimInserts.Add(1)
				return ev, false
			}
		} else {
			if v, found := t.leafSearch(leaf, key); found {
				return v, false
			}
			th.lockNode(leaf)
		}

		if leaf.isMarked() {
			th.unlockAll()
			continue
		}

		if done, old, inserted := t.insertLocked(leaf, key, val); done {
			th.unlockAll()
			return old, inserted
		}

		// Splitting insert: no empty slot; replace the leaf with a tagged
		// node over two half leaves (linearizes at the parent's pointer
		// write). Lock the parent too (bottom-to-top order).
		parent := path.p
		th.lockNode(parent)
		if parent.isMarked() {
			th.unlockAll()
			continue
		}
		taggedNode := t.splitInsert(leaf, parent, path.nIdx, key, val)
		th.unlockAll()
		if taggedNode != nil {
			th.fixTagged(taggedNode)
		}
		return 0, true
	}
}

// findSlot scans the locked leaf l for key. at is key's slot, or -1 if
// key is absent; empty is then the first empty slot, or -1 if l is full.
func (t *Tree) findSlot(l *leaf, key uint64) (at, empty int) {
	empty = -1
	for i := 0; i < t.b; i++ {
		switch k := l.keys[i].Load(); {
		case k == key:
			return i, empty
		case k == emptyKey && empty < 0:
			empty = i
		}
	}
	return -1, empty
}

// insertLocked performs the locked phase of a simple insert: the caller
// holds the leaf's lock. done is false when the leaf is full (splitting
// insert required).
func (t *Tree) insertLocked(n *node, key, val uint64) (done bool, old uint64, inserted bool) {
	leaf := n.leaf()
	at, empty := t.findSlot(leaf, key)
	if at >= 0 {
		return true, leaf.vals[at].Load(), false
	}
	if empty < 0 {
		return false, 0, false // full: splitting insert
	}
	t.putLocked(n, empty, key, val)
	return true, 0, true
}

// putLocked writes <key, val> into the empty slot i of the locked leaf n
// and publishes the insert record, inside one version window. A simple
// insert linearizes at the second version increment.
func (t *Tree) putLocked(n *node, i int, key, val uint64) {
	leaf := n.leaf()
	v := leaf.ver.Add(1) // now odd: modification in progress
	t.rqStamp(leaf)
	if t.elim {
		n.elim().publish(key, val, v, RecInsert)
	}
	leaf.vals[i].Store(val)
	leaf.keys[i].Store(key)
	leaf.addSize(1)
	leaf.ver.Add(1)
}

// splitInsert performs the splitting-insert update with leaf and parent
// locked and unmarked. It returns the created tagged node (nil if the new
// subtree root is an untagged internal, i.e. the new tree root).
func (t *Tree) splitInsert(n, parent *node, nIdx int, key, val uint64) *node {
	leaf := n.leaf()
	var buf [maxCap + 1]kv
	items := append(gatherLeaf(t, leaf, buf[:0]), kv{key, val})
	sortKVs(items)

	mid := len(items) / 2
	sep := items[mid].k

	// Open the leaf's version window around the replacement: the scan
	// timestamp must be read where a snapshot scan's double collect can
	// arbitrate against it (rqsnap.go). The leaf's contents stay intact;
	// only its reachability changes.
	leaf.ver.Add(1)
	c := t.rqp.ReadStamp()
	left := t.newLeaf(items[:mid], items[0].k)
	right := t.newLeaf(items[mid:], sep)
	t.rqInheritSplit(leaf, left.leaf(), right.leaf(), sep, c)

	// The new two-child node is tagged — a temporary height imbalance to
	// be merged upward by fixTagged — unless the split leaf was the root,
	// in which case the new node simply becomes the (untagged) new root.
	k := taggedKind
	if parent == t.entry {
		k = internalKind
	}
	nn := newInternal(k, []uint64{sep}, []*node{left, right}, sep)

	parent.inner().ptrs[nIdx].Store(nn)
	leaf.mark()
	leaf.ver.Add(1)
	if k == taggedKind {
		return nn
	}
	return nil
}

// Delete removes key if present, returning its value and true; otherwise
// it returns (0, false) and leaves the tree unchanged (paper §3.2).
func (th *Thread) Delete(key uint64) (uint64, bool) {
	checkKey(key)
	t := th.t
	for {
		leaf := t.search(key, nil).n

		if t.elim {
			_, found, consistent := t.leafScanOnce(leaf, key)
			if consistent && !found {
				return 0, false
			}
			acquired, _ := th.lockOrElimKind(leaf, key, OpDelete)
			if !acquired {
				// Eliminated deletes always return ⊥ (§4.1): linearized
				// just before the record's insert, or just after the
				// record's delete — either way the key is absent.
				t.elimDeletes.Add(1)
				return 0, false
			}
		} else {
			if _, found := t.leafSearch(leaf, key); !found {
				return 0, false
			}
			th.lockNode(leaf)
		}

		if leaf.isMarked() {
			th.unlockAll()
			continue
		}

		val, found, newSize := t.deleteLocked(leaf, key)
		th.unlockAll()
		if !found {
			// Removed by a concurrent delete between search and lock.
			return 0, false
		}
		if newSize < t.a {
			th.fixUnderfull(leaf)
		}
		return val, true
	}
}

// deleteLocked performs the locked phase of a delete: clear the key's
// slot and publish the elimination record inside one version window. The
// caller holds the leaf's lock.
func (t *Tree) deleteLocked(n *node, key uint64) (val uint64, found bool, newSize int) {
	leaf := n.leaf()
	idx := -1
	for i := 0; i < t.b; i++ {
		if leaf.keys[i].Load() == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false, leaf.size()
	}
	val = leaf.vals[idx].Load()
	v := leaf.ver.Add(1) // odd: modification in progress
	t.rqStamp(leaf)
	if t.elim {
		n.elim().publish(key, val, v, RecDelete)
	}
	leaf.keys[idx].Store(emptyKey)
	newSize = leaf.addSize(-1)
	leaf.ver.Add(1)
	return val, true, newSize
}

func checkKey(key uint64) {
	if key == emptyKey {
		panic("core: key 0 is reserved as the empty sentinel")
	}
	if key == ^uint64(0) {
		panic("core: key 2^64-1 is reserved as the key-range upper bound")
	}
}

// sortKVs sorts items by key (insertion sort: at most b+1 = 12 elements,
// called with the leaf lock held, so avoiding sort.Slice's allocation and
// indirection is worthwhile).
func sortKVs(items []kv) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && items[j].k > it.k {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}
