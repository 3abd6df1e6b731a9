// Relaxed-AVL rebalancing for the BCCO10 tree.
//
// After an update, the writer walks toward the root repairing two kinds
// of damage: stale height hints and AVL balance violations. Heights are
// hints — a concurrent writer may leave them stale and a later walk
// repairs them — so reads of child heights outside their locks are safe.
// Rotations hold the locks of the damaged node, its parent, and the
// promoted child (plus the grandchild for double rotations), all
// acquired in root-to-leaf order, and wrap the key-range-shrinking nodes
// in a shrink version change so optimistic searches wait and retry.
// Routing nodes that drop to one child are spliced out here too.
package bcco10

func maxi32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// fixHeightAndRebalance repairs heights and balance from n toward the
// root. It stops early when a node's height is already correct and its
// balance is within bounds (no damage can propagate further up).
func (t *Tree) fixHeightAndRebalance(n *node) {
	for n != nil && n != &t.rootHolder {
		parent := n.parent.Load()
		if parent == nil {
			return
		}
		if n.ovl.Load()&ovlUnlinked != 0 {
			n = parent
			continue
		}
		l, r := n.left.Load(), n.right.Load()
		if n.val.Load() == nil && (l == nil || r == nil) {
			// Routing node with ≤1 child: splice it out and re-examine
			// the parent (whose height may now be stale).
			t.tryUnlinkRouting(parent, n)
			n = parent
			continue
		}
		hl, hr := height(l), height(r)
		bal := hl - hr
		if bal > 1 || bal < -1 {
			t.rebalanceAt(parent, n)
			n = parent
			continue
		}
		nh := 1 + maxi32(hl, hr)
		if nh == n.height.Load() {
			return
		}
		n.mu.Lock()
		if n.ovl.Load()&ovlUnlinked == 0 {
			h := 1 + maxi32(height(n.left.Load()), height(n.right.Load()))
			if h != n.height.Load() {
				n.height.Store(h)
				n.mu.Unlock()
				n = parent
				continue
			}
		}
		n.mu.Unlock()
		return
	}
}

// tryUnlinkRouting splices out a routing node with at most one child.
// Returns false if validation failed (someone else changed the
// neighbourhood first); the caller simply moves on.
func (t *Tree) tryUnlinkRouting(parent, n *node) bool {
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if parent.ovl.Load()&ovlUnlinked != 0 || n.parent.Load() != parent {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ovl.Load()&ovlUnlinked != 0 || n.val.Load() != nil {
		return false
	}
	l, r := n.left.Load(), n.right.Load()
	if l != nil && r != nil {
		return false
	}
	splice := l
	if splice == nil {
		splice = r
	}
	replaceChild(parent, n, splice)
	if splice != nil {
		splice.parent.Store(parent)
	}
	n.ovl.Store(n.ovl.Load() | ovlUnlinked)
	return true
}

// rebalanceAt fixes an AVL violation at n with locks on parent and n.
// The violation is re-checked under the locks; if it evaporated the
// height is refreshed instead.
func (t *Tree) rebalanceAt(parent, n *node) {
	parent.mu.Lock()
	defer parent.mu.Unlock()
	if parent.ovl.Load()&ovlUnlinked != 0 || n.parent.Load() != parent {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ovl.Load()&ovlUnlinked != 0 {
		return
	}
	l, r := n.left.Load(), n.right.Load()
	hl, hr := height(l), height(r)
	switch bal := hl - hr; {
	case bal > 1: // left-heavy: promote l (or l.right for the double case)
		l.mu.Lock()
		defer l.mu.Unlock()
		if height(l.right.Load()) > height(l.left.Load()) {
			lr := l.right.Load()
			lr.mu.Lock()
			t.rotateRightOverLeft(parent, n, l, lr)
			lr.mu.Unlock()
		} else {
			t.rotateRight(parent, n, l)
		}
	case bal < -1: // right-heavy: mirror image
		r.mu.Lock()
		defer r.mu.Unlock()
		if height(r.left.Load()) > height(r.right.Load()) {
			rl := r.left.Load()
			rl.mu.Lock()
			t.rotateLeftOverRight(parent, n, r, rl)
			rl.mu.Unlock()
		} else {
			t.rotateLeft(parent, n, r)
		}
	default:
		n.height.Store(1 + maxi32(hl, hr))
	}
}

// beginShrink marks n as shrinking and returns the clean version to
// advance from. Caller holds n's lock.
func beginShrink(n *node) int64 {
	v := n.ovl.Load()
	n.ovl.Store(v | ovlShrinking)
	return v
}

// endShrink publishes the completed shrink by advancing the change count
// (which also clears the shrinking bit).
func endShrink(n *node, v int64) {
	n.ovl.Store(v + ovlCountStep)
}

// rotateRight promotes l over n. Locks held: parent, n, l. n's key range
// shrinks (it no longer covers keys below l.key) so n gets a shrink
// version change; l only grows.
//
//	  parent              parent
//	    |                   |
//	    n                   l
//	   / \                 / \
//	  l   c      =>      a    n
//	 / \                     / \
//	a   b                   b   c
//
// Store order (all four rotations, as in Bronson et al.): the links below
// the promoted node first, the parent's child pointer last. The promoted
// node only grows, so it takes no version change that would make a
// search retry; if parent pointed at it while l.right was still b, an
// operation arriving through parent with a key beyond n.key would read
// l.right == b, validate, and insert inside b — outside b's key range.
func (t *Tree) rotateRight(parent, n, l *node) {
	nv := beginShrink(n)
	b := l.right.Load()
	n.left.Store(b)
	if b != nil {
		b.parent.Store(n)
	}
	l.right.Store(n)
	n.parent.Store(l)
	replaceChild(parent, n, l)
	l.parent.Store(parent)
	n.height.Store(1 + maxi32(height(b), height(n.right.Load())))
	l.height.Store(1 + maxi32(height(l.left.Load()), n.height.Load()))
	endShrink(n, nv)
}

// rotateLeft promotes r over n (mirror of rotateRight).
func (t *Tree) rotateLeft(parent, n, r *node) {
	nv := beginShrink(n)
	b := r.left.Load()
	n.right.Store(b)
	if b != nil {
		b.parent.Store(n)
	}
	r.left.Store(n)
	n.parent.Store(r)
	replaceChild(parent, n, r)
	r.parent.Store(parent)
	n.height.Store(1 + maxi32(height(n.left.Load()), height(b)))
	r.height.Store(1 + maxi32(n.height.Load(), height(r.right.Load())))
	endShrink(n, nv)
}

// rotateRightOverLeft performs the left-right double rotation: lr is
// promoted over both l and n. Locks held: parent, n, l, lr. Both n and l
// lose key-range coverage, so both get shrink version changes.
//
//	  parent                parent
//	    |                     |
//	    n                     lr
//	   / \                  /    \
//	  l   d               l       n
//	 / \          =>     / \     / \
//	a   lr              a   b   c   d
//	   /  \
//	  b    c
func (t *Tree) rotateRightOverLeft(parent, n, l, lr *node) {
	nv := beginShrink(n)
	lv := beginShrink(l)
	b, c := lr.left.Load(), lr.right.Load()
	n.left.Store(c)
	if c != nil {
		c.parent.Store(n)
	}
	l.right.Store(b)
	if b != nil {
		b.parent.Store(l)
	}
	lr.left.Store(l)
	l.parent.Store(lr)
	lr.right.Store(n)
	n.parent.Store(lr)
	replaceChild(parent, n, lr)
	lr.parent.Store(parent)
	l.height.Store(1 + maxi32(height(l.left.Load()), height(b)))
	n.height.Store(1 + maxi32(height(c), height(n.right.Load())))
	lr.height.Store(1 + maxi32(l.height.Load(), n.height.Load()))
	endShrink(l, lv)
	endShrink(n, nv)
}

// rotateLeftOverRight is the right-left double rotation (mirror image).
func (t *Tree) rotateLeftOverRight(parent, n, r, rl *node) {
	nv := beginShrink(n)
	rv := beginShrink(r)
	b, c := rl.left.Load(), rl.right.Load()
	n.right.Store(b)
	if b != nil {
		b.parent.Store(n)
	}
	r.left.Store(c)
	if c != nil {
		c.parent.Store(r)
	}
	rl.right.Store(r)
	r.parent.Store(rl)
	rl.left.Store(n)
	n.parent.Store(rl)
	replaceChild(parent, n, rl)
	rl.parent.Store(parent)
	r.height.Store(1 + maxi32(height(c), height(r.right.Load())))
	n.height.Store(1 + maxi32(height(n.left.Load()), height(b)))
	rl.height.Store(1 + maxi32(n.height.Load(), r.height.Load()))
	endShrink(r, rv)
	endShrink(n, nv)
}
