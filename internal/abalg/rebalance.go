package abalg

import (
	"slices"

	"repro/internal/rq"
)

// SplitInsert replaces the full, locked, unmarked leaf — child nIdx of
// the locked, unmarked parent — with a two-leaf subtree holding its pairs
// plus <key, val>; the insert linearizes at the parent's pointer write.
// It returns the new subtree root if it is tagged (the caller runs
// FixTagged on it after unlocking), or the zero R if the leaf was the
// tree's root and the new node simply became the (untagged) new root.
func SplitInsert[R comparable](s Store[R], leaf, parent R, nIdx int, key, val uint64) (tagged R) {
	sc := s.Scratch()
	items := append(gather(s, leaf, sc.Items[:0]), rq.Pair{K: key, V: val})
	rq.SortPairs(items)
	mid := len(items) / 2
	sep := items[mid].K

	// Open the leaf's version window around the replacement: the scan
	// timestamp must be read where a snapshot scan's double collect can
	// arbitrate against it (internal/rq). The leaf's contents stay
	// intact; only its reachability changes.
	s.BumpVer(leaf)
	c := s.RQ().ReadStamp()
	lo := s.SearchKey(leaf)
	left := s.NewLeaf(items[:mid], lo)
	right := s.NewLeaf(items[mid:], sep)
	inherit(s, leaf, leaf, left, right, sep, c)

	k := TaggedKind
	if parent == s.Entry() {
		k = InternalKind
	}
	top := newPair(s, k, sep, left, right, lo)
	s.SetChild(parent, nIdx, top)
	s.Unlink(leaf)
	s.BumpVer(leaf)
	if k == TaggedKind {
		tagged = top
	}
	return tagged
}

// newPair builds a two-child node. It stages in s's scratch, so whatever
// the caller gathered there must already be built into left and right.
func newPair[R comparable](s Store[R], k Kind, sep uint64, left, right R, searchKey uint64) R {
	sc := s.Scratch()
	sc.Keys[0], sc.Children[0], sc.Children[1] = sep, left, right
	return s.NewInternal(k, sc.Keys[:1], sc.Children[:2], searchKey)
}

// FixTagged removes the tagged node n from the tree (paper Figure 7) by
// merging it into its parent — or, if the merged node would exceed b
// children, by splitting the merged contents under a fresh tagged node and
// continuing. Callers hold no locks.
func FixTagged[R comparable](s Store[R], n R) {
	var none R
	_, b := s.Degree()
	entry, sc := s.Entry(), s.Scratch()
	for {
		if s.Marked(n) {
			return
		}
		path := Search(s, s.SearchKey(n), n)
		if path.N != n {
			// Another thread already removed the tagged node.
			return
		}
		p, gp := path.P, path.GP
		if p == none || p == entry || gp == none {
			// A tagged node is never the entry's child (splitting inserts
			// create an untagged root instead); if we observe this state
			// the node was concurrently replaced.
			return
		}

		Lock(s, n)
		Lock(s, p)
		Lock(s, gp)
		if s.Marked(n) || s.Marked(p) || s.Marked(gp) || s.Kind(p) == TaggedKind {
			s.UnlockAll()
			continue
		}

		// Merge n's single routing key and two children into p's arrays,
		// replacing p's pointer to n.
		nIdx := path.NIdx
		children, keys := s.GatherInternal(p, sc.Children[:0], sc.Keys[:0])
		children = slices.Replace(children, nIdx, nIdx+1, s.Child(n, 0), s.Child(n, 1))
		keys = slices.Insert(keys, nIdx, s.RoutingKey(n, 0))

		lo := s.SearchKey(p)
		top, topKind := none, InternalKind
		if len(children) <= b {
			// Merge case (Figure 3(5)): one new internal replaces p.
			top = s.NewInternal(InternalKind, keys, children, lo)
		} else {
			// Split case (Figure 6): the merged contents don't fit, so
			// build a two-level subtree: a new parent over two internals
			// that evenly share the merged keys and children. The new
			// parent is itself tagged (to be merged further up) unless it
			// becomes the root.
			lc := (len(children) + 1) / 2
			promoted := keys[lc-1]
			left := s.NewInternal(InternalKind, keys[:lc-1], children[:lc], lo)
			right := s.NewInternal(InternalKind, keys[lc:], children[lc:], promoted)
			if gp != entry {
				topKind = TaggedKind
			}
			top = newPair(s, topKind, promoted, left, right, lo)
		}
		s.SetChild(gp, path.PIdx, top)
		s.Unlink(n)
		s.Unlink(p)
		s.UnlockAll()
		if topKind != TaggedKind {
			return
		}
		n = top
	}
}

// FixUnderfull restores the minimum-size invariant for n (paper Figure 9):
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
func FixUnderfull[R comparable](s Store[R], n R) {
	var none R
	a, _ := s.Degree()
	entry := s.Entry()
	for {
		if n == entry || n == s.Child(entry, 0) {
			return // The root may be underfull.
		}
		path := Search(s, s.SearchKey(n), n)
		if path.N != n {
			return // n is no longer in the tree.
		}
		p, gp, nIdx := path.P, path.GP, path.NIdx
		if p == none || p == entry || gp == none {
			// n became the root between the check above and the search.
			continue
		}
		if s.Size(p) < 2 {
			// Parent itself is underfull (a cascading merge left it with
			// one child); its own FixUnderfull must run first. Retry.
			s.Pause()
			continue
		}

		sIdx := nIdx - 1
		if nIdx == 0 {
			sIdx = 1
		}
		sibling := s.Child(p, sIdx)
		left, right, lIdx := n, sibling, nIdx
		if sIdx < nIdx {
			left, right, lIdx = sibling, n, sIdx
		}
		// Lock order: bottom-to-top, left-to-right.
		Lock(s, left)
		Lock(s, right)
		Lock(s, p)
		Lock(s, gp)

		if s.Size(n) >= a {
			// Another thread fixed it (e.g. an insert refilled the leaf).
			s.UnlockAll()
			return
		}
		// An underfull parent must be repaired first — unless it is the
		// root, which may stay below a (with a > 2 nobody else would ever
		// grow it, and this loop would wait forever).
		if (s.Size(p) < a && gp != entry) ||
			s.Marked(n) || s.Marked(sibling) || s.Marked(p) || s.Marked(gp) ||
			s.Kind(n) == TaggedKind || s.Kind(sibling) == TaggedKind || s.Kind(p) == TaggedKind {
			s.UnlockAll()
			s.Pause()
			continue
		}
		if s.Size(n)+s.Size(sibling) >= 2*a {
			distribute(s, left, right, p, gp, lIdx, path.PIdx)
		} else {
			merge(s, left, right, p, gp, lIdx, path.PIdx)
		}
		return
	}
}

// distribute evenly reshares the contents of the siblings left and right
// (children lIdx and lIdx+1 of p, itself child pIdx of gp) between two
// new nodes, replacing the parent to update the separator key (Figure 8).
// All four nodes are locked and unmarked; distribute publishes, unlinks
// the three replaced nodes and unlocks.
func distribute[R comparable](s Store[R], left, right, p, gp R, lIdx, pIdx int) {
	sc := s.Scratch()
	lo := s.SearchKey(left)
	leaves := s.Kind(left) == LeafKind
	var newLeft, newRight R
	var sep uint64
	if leaves {
		items := gather(s, right, gather(s, left, sc.Items[:0]))
		lc := (len(items) + 1) / 2
		sep = items[lc].K
		c := openWindows(s, left, right)
		newLeft, newRight = s.NewLeaf(items[:lc], lo), s.NewLeaf(items[lc:], sep)
		inherit(s, left, right, newLeft, newRight, s.SearchKey(right), c)
	} else {
		children, keys := gatherSiblings(s, left, right, s.RoutingKey(p, lIdx))
		lc := (len(children) + 1) / 2
		sep = keys[lc-1]
		newLeft = s.NewInternal(InternalKind, keys[:lc-1], children[:lc], lo)
		newRight = s.NewInternal(InternalKind, keys[lc:], children[lc:], sep)
	}

	children, keys := s.GatherInternal(p, sc.Children[:0], sc.Keys[:0])
	children[lIdx], children[lIdx+1], keys[lIdx] = newLeft, newRight, sep
	s.SetChild(gp, pIdx, s.NewInternal(s.Kind(p), keys, children, s.SearchKey(p)))
	unlinkFamily(s, left, right, p, leaves)
}

// merge combines left and right into one node, shrinking the parent by one
// child (Figure 3(2)); if the parent was the root with exactly two
// children, the merged node becomes the new root (the tree height
// shrinks). Same arguments and locking as distribute; merge publishes,
// unlinks, unlocks, and then fixes any underfull node it created.
func merge[R comparable](s Store[R], left, right, p, gp R, lIdx, pIdx int) {
	a, _ := s.Degree()
	sc := s.Scratch()
	lo := s.SearchKey(left)
	leaves := s.Kind(left) == LeafKind
	var nn R
	if leaves {
		items := gather(s, right, gather(s, left, sc.Items[:0]))
		c := openWindows(s, left, right)
		nn = s.NewLeaf(items, lo)
		inherit(s, left, right, nn, nn, s.SearchKey(right), c)
	} else {
		children, keys := gatherSiblings(s, left, right, s.RoutingKey(p, lIdx))
		nn = s.NewInternal(InternalKind, keys, children, lo)
	}

	pc := s.Size(p)
	if gp == s.Entry() && pc == 2 {
		// p was the root and is now down to one child: collapse a level.
		s.SetChild(gp, pIdx, nn)
		unlinkFamily(s, left, right, p, leaves)
		return
	}

	// nn takes left's slot; right's slot and the separator are dropped.
	children, keys := s.GatherInternal(p, sc.Children[:0], sc.Keys[:0])
	children = slices.Replace(children, lIdx, lIdx+2, nn)
	keys = slices.Delete(keys, lIdx, lIdx+1)
	newParent := s.NewInternal(s.Kind(p), keys, children, s.SearchKey(p))
	s.SetChild(gp, pIdx, newParent)
	unlinkFamily(s, left, right, p, leaves)

	// The merged node may still be underfull (total < 2a can be < a), and
	// the shrunken parent may have dropped below a children. The parent
	// MUST be repaired first: when it was left with a single child (pc
	// was 2), FixUnderfull(nn) would find its parent with < 2 children
	// and spin waiting for "its own FixUnderfull" — which would be this
	// very thread, queued behind the spin. Per-key deletes rarely merge
	// a pair whose total is below a, but batched deletes empty whole
	// leaves in one lock hold and hit this self-wait readily.
	if pc-1 < a {
		FixUnderfull(s, newParent)
	}
	if s.Size(nn) < a {
		FixUnderfull(s, nn)
	}
}

// gather appends a locked (or quiescent) leaf's pairs to items and
// returns the whole of items sorted by key.
func gather[R comparable](s Store[R], leaf R, items []rq.Pair) []rq.Pair {
	items, _, _, _, _, _ = s.AppendLeaf(leaf, items, 0, ^uint64(0))
	rq.SortPairs(items)
	return items
}

// gatherSiblings concatenates two locked internal siblings' children and
// routing keys, with the parent separator sep between the key runs, into
// s's scratch.
func gatherSiblings[R comparable](s Store[R], left, right R, sep uint64) ([]R, []uint64) {
	sc := s.Scratch()
	children, keys := s.GatherInternal(left, sc.Children[:0], sc.Keys[:0])
	return s.GatherInternal(right, children, append(keys, sep))
}

// openWindows opens the version windows of two sibling leaves about to be
// replaced and returns the scan timestamp read inside them, against
// which snapshot scans arbitrate. unlinkFamily closes the windows.
func openWindows[R comparable](s Store[R], left, right R) (c uint64) {
	s.BumpVer(left)
	s.BumpVer(right)
	return s.RQ().ReadStamp()
}

// unlinkFamily finishes a distribute or merge after its pointer write:
// it unlinks the replaced siblings and parent, closes the siblings'
// version windows if they are leaves, and unlocks.
func unlinkFamily[R comparable](s Store[R], left, right, p R, leaves bool) {
	s.Unlink(left)
	s.Unlink(right)
	s.Unlink(p)
	if leaves {
		s.BumpVer(left)
		s.BumpVer(right)
	}
	s.UnlockAll()
}

// The replacement leaves of a structural update inherit the replaced
// leaves' range-query history by reference (rq.Inherit), and a scan
// clips what it resolves to each leaf's range (scan.go). These helpers
// run inside the old leaves' version windows, with c the stamp read
// there.

// inherit stamps the new leaves nl and nr (one leaf twice, for a merge)
// with c and hands them the history of the replaced siblings left and
// right (one leaf twice, for a split), linked under one inheritance node
// that splits it at sep. No history is handed on when no scan can
// resolve a timestamp at or below c: every scan then reads the new
// leaves' current contents.
func inherit[R comparable](s Store[R], left, right, nl, nr R, sep, c uint64) {
	var h *rq.Version
	if m := s.RQ().MinActive(); m <= c {
		l := timeline(s, left, c, m)
		r := l
		if right != left {
			r = timeline(s, right, c, m)
		}
		h = rq.Inherit(l, r, sep)
	}
	for _, n := range [2]R{nl, nr} {
		ls := s.LeafState(n)
		ls.TS.Store(c)
		ls.Vers.Store(h)
	}
}

// timeline returns a leaf's full state history — the version chain,
// headed by the current contents when a scan in (stamp, c] could still
// need them, pruned at minActive m. The leaf must be locked and not yet
// modified by the caller.
func timeline[R comparable](s Store[R], leaf R, c, m uint64) *rq.Version {
	ls, p := s.LeafState(leaf), s.RQ()
	tl := ls.Vers.Load()
	if st := ls.TS.Load(); st < c {
		v := p.Acquire()
		v.Items = gather(s, leaf, v.Items)
		tl = p.PushAcquired(tl, st, v, m)
	}
	return tl
}
