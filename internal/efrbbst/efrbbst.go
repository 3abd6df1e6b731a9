// Package efrbbst implements the lock-free external binary search tree of
// Ellen, Fatourou, Ruppert & van Breugel ("Non-Blocking Binary Search
// Trees", PODC 2010) with full helping. It stands in for the NM14
// baseline in the paper's evaluation (§2: Natarajan & Mittal improved on
// exactly this design by flagging edges instead of nodes and allocating
// less per update). The performance role in the figures is preserved: a
// lock-free external BST whose searches never block and whose updates
// allocate and may help.
//
// Protocol summary: every internal node carries an update word holding a
// state (CLEAN / IFLAG / DFLAG / MARK) and a pointer to the in-progress
// operation's Info record. An insert flags the parent (IFLAG), swings the
// child, and unflags. A delete flags the grandparent (DFLAG), marks the
// parent (MARK, permanent — the parent is being spliced out), swings the
// grandparent's child to the leaf's sibling, and unflags. Any thread that
// encounters a non-CLEAN word helps that operation to completion before
// retrying its own. CASes compare update-record pointers, so pointer
// identity provides ABA-safe versioning.
package efrbbst

import "sync/atomic"

const (
	inf1 = ^uint64(0) - 1 // sentinel: larger than any real key
	inf2 = ^uint64(0)     // sentinel: larger than inf1
)

type state uint8

const (
	clean state = iota
	iflag
	dflag
	mark
)

// update is an internal node's coordination word.
type update struct {
	s state
	i *iInfo
	d *dInfo
}

var initialClean = &update{s: clean}

type node struct {
	key         uint64
	val         uint64 // leaves only
	leaf        bool
	left, right atomic.Pointer[node]
	upd         atomic.Pointer[update] // internals only
}

// iInfo describes an in-progress insert: replace leaf l under p with nn.
// u is the IFLAG word that owns p.
type iInfo struct {
	p, nn, l *node
	u        *update
}

// dInfo describes an in-progress delete of leaf l: splice out p, the
// grandparent gp adopting l's sibling. pupd is p's update word as
// observed at injection; u is the DFLAG word that owns gp.
type dInfo struct {
	gp, p, l *node
	pupd     *update
	u        *update
}

// Tree is a lock-free external BST.
type Tree struct {
	root *node
}

// New returns an empty tree: root(inf2) over leaf(inf1) and leaf(inf2).
// Every real leaf always has a parent and grandparent.
func New() *Tree {
	root := internal(inf2)
	root.left.Store(leafNode(inf1, 0))
	root.right.Store(leafNode(inf2, 0))
	return &Tree{root: root}
}

func internal(key uint64) *node {
	n := &node{key: key}
	n.upd.Store(initialClean)
	return n
}

func leafNode(key, val uint64) *node {
	return &node{key: key, val: val, leaf: true}
}

type seekRecord struct {
	gp, p, l    *node
	gpupd, pupd *update
}

// seek descends to the leaf for key, reading each node's update word
// before its child pointer (required for the flag/mark validation).
func (t *Tree) seek(key uint64) seekRecord {
	var r seekRecord
	r.l = t.root
	for !r.l.leaf {
		r.gp, r.gpupd = r.p, r.pupd
		r.p = r.l
		r.pupd = r.p.upd.Load()
		if key < r.l.key {
			r.l = r.l.left.Load()
		} else {
			r.l = r.l.right.Load()
		}
	}
	return r
}

// Find returns the value for key, if present. Wait-free.
func (t *Tree) Find(key uint64) (uint64, bool) {
	r := t.seek(key)
	if r.l.key == key {
		return r.l.val, true
	}
	return 0, false
}

// casChild swings parent's child pointer from old to nn; the side is
// chosen by key comparison (nn's key lies in old's key range).
func casChild(parent, old, nn *node) {
	if nn.key < parent.key {
		parent.left.CompareAndSwap(old, nn)
	} else {
		parent.right.CompareAndSwap(old, nn)
	}
}

// Insert inserts <key, val> if absent, returning (0, true); if present it
// returns the existing value and false.
func (t *Tree) Insert(key, val uint64) (uint64, bool) {
	if key == 0 || key >= inf1 {
		panic("efrbbst: reserved key")
	}
	for {
		r := t.seek(key)
		if r.l.key == key {
			return r.l.val, false
		}
		if r.pupd.s != clean {
			t.help(r.pupd)
			continue
		}
		op := newInsert(r, key, val)
		if r.p.upd.CompareAndSwap(r.pupd, op.u) {
			t.helpInsert(op)
			return 0, true
		}
		t.help(r.p.upd.Load())
	}
}

// newInsert builds the insert of <key, val> beside the leaf r.l: a new
// internal node over the new leaf and a fresh copy of r.l. The copy is
// what keeps child pointers ABA-free (Ellen et al., Fig. 7): linking r.l
// itself would let p's child go l -> nn -> l once key is deleted again,
// and a late helper's casChild(p, l, nn) would then resurrect the
// spliced-out subtree.
func newInsert(r seekRecord, key, val uint64) *iInfo {
	nl := leafNode(key, val)
	sib := leafNode(r.l.key, r.l.val)
	var nn *node
	if key < r.l.key {
		nn = internal(r.l.key)
		nn.left.Store(nl)
		nn.right.Store(sib)
	} else {
		nn = internal(key)
		nn.left.Store(sib)
		nn.right.Store(nl)
	}
	op := &iInfo{p: r.p, nn: nn, l: r.l}
	op.u = &update{s: iflag, i: op}
	return op
}

// helpInsert completes an IFLAGged insert: swing the child, then unflag.
func (t *Tree) helpInsert(op *iInfo) {
	casChild(op.p, op.l, op.nn)
	op.p.upd.CompareAndSwap(op.u, &update{s: clean})
}

// Delete removes key if present, returning its value and true.
func (t *Tree) Delete(key uint64) (uint64, bool) {
	if key == 0 || key >= inf1 {
		panic("efrbbst: reserved key")
	}
	for {
		r := t.seek(key)
		if r.l.key != key {
			return 0, false
		}
		if r.gpupd.s != clean {
			t.help(r.gpupd)
			continue
		}
		if r.pupd.s != clean {
			t.help(r.pupd)
			continue
		}
		val := r.l.val
		op := &dInfo{gp: r.gp, p: r.p, l: r.l, pupd: r.pupd}
		u := &update{s: dflag, d: op}
		op.u = u
		if r.gp.upd.CompareAndSwap(r.gpupd, u) {
			if t.helpDelete(op) {
				return val, true
			}
			continue
		}
		t.help(r.gp.upd.Load())
	}
}

// helpDelete tries to mark the parent (the decision point). On success
// the splice is completed; on failure the DFLAG is backtracked so other
// operations can proceed, and the delete retries.
func (t *Tree) helpDelete(op *dInfo) bool {
	mu := &update{s: mark, d: op}
	if op.p.upd.CompareAndSwap(op.pupd, mu) {
		t.helpMarked(op)
		return true
	}
	cur := op.p.upd.Load()
	if cur.s == mark && cur.d == op {
		// Another helper installed the mark for this same operation.
		t.helpMarked(op)
		return true
	}
	t.help(cur)
	op.gp.upd.CompareAndSwap(op.u, &update{s: clean}) // backtrack
	return false
}

// helpMarked splices the marked parent out (the grandparent adopts l's
// sibling) and unflags the grandparent. The parent stays MARKed forever:
// it is unreachable once spliced.
func (t *Tree) helpMarked(op *dInfo) {
	var sibling *node
	if op.p.left.Load() == op.l {
		sibling = op.p.right.Load()
	} else {
		sibling = op.p.left.Load()
	}
	if op.gp.left.Load() == op.p {
		op.gp.left.CompareAndSwap(op.p, sibling)
	} else if op.gp.right.Load() == op.p {
		op.gp.right.CompareAndSwap(op.p, sibling)
	}
	op.gp.upd.CompareAndSwap(op.u, &update{s: clean})
}

// help advances whatever operation owns the update word.
func (t *Tree) help(u *update) {
	switch u.s {
	case iflag:
		t.helpInsert(u.i)
	case mark:
		t.helpMarked(u.d)
	case dflag:
		t.helpDelete(u.d)
	}
}

// Scan calls fn in ascending key order (quiescent only).
func (t *Tree) Scan(fn func(k, v uint64)) {
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.leaf {
			if n.key < inf1 {
				fn(n.key, n.val)
			}
			return
		}
		walk(n.left.Load())
		walk(n.right.Load())
	}
	walk(t.root)
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
