package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/abalg"
	"repro/internal/rq"
)

// Tree is an OCC-ABtree or (with WithElimination) an Elim-ABtree.
//
// All operations go through a Thread handle (see NewThread); the handle
// records the locks an operation holds and stages its structural
// updates, mirroring the paper's C++ threads.
// A Tree is safe for use by any number of Threads concurrently.
type Tree struct {
	// entry is the sentinel: an internal node with no keys and one child
	// pointer (the root). It is never removed or replaced (§3).
	entry *node

	a, b int  // min/max node size
	elim bool // publishing elimination enabled (Elim-ABtree)

	// Elimination counters (Elim-ABtree only), by abalg.OpKind:
	// operations that returned via publishing elimination instead of
	// modifying the tree. They expose the mechanism directly, independent
	// of core count.
	elims [3]atomic.Uint64

	// rqp coordinates linearizable range queries (rqsnap.go): the scan
	// timestamp clock (private by default, shared under WithRQClock),
	// the active-scan registry, and version-chain stats.
	rqp     *rq.Provider
	rqClock *rq.Clock // nil = private clock
}

// ElimStats reports how many inserts, deletes and upserts were eliminated
// against a published record rather than executed against the tree.
func (t *Tree) ElimStats() (inserts, deletes, upserts uint64) {
	return t.elims[abalg.OpInsert].Load(), t.elims[abalg.OpDelete].Load(), t.elims[abalg.OpUpsert].Load()
}

// Option configures a Tree.
type Option func(*Tree)

// WithElimination enables publishing elimination, turning the OCC-ABtree
// into the Elim-ABtree.
func WithElimination() Option { return func(t *Tree) { t.elim = true } }

// WithDegree sets the (a,b) node-size bounds. Requires 2 <= a <= b/2 and
// 4 <= b <= 11 (the paper uses a=2, b=11, which is also the capacity the
// node layouts are sized for).
func WithDegree(a, b int) Option { return func(t *Tree) { t.a, t.b = a, b } }

// WithRQClock couples the tree's range-query subsystem to c instead of a
// private clock. Trees sharing one clock share one scan-linearization
// point: a scan that draws a timestamp from the shared clock (see
// RangeSnapshotAt) observes a single atomic snapshot across all of
// them. internal/shard uses this for cross-shard linearizable scans.
func WithRQClock(c *rq.Clock) Option { return func(t *Tree) { t.rqClock = c } }

// New returns an empty tree.
func New(opts ...Option) *Tree {
	t := &Tree{a: DefaultMinSize, b: DefaultMaxSize}
	for _, o := range opts {
		o(t)
	}
	if t.b < 4 || t.b > maxCap || t.a < 2 || t.a > t.b/2 {
		panic(fmt.Sprintf("core: invalid degree (a=%d, b=%d): need 2 <= a <= b/2 and 4 <= b <= %d", t.a, t.b, maxCap))
	}
	if t.rqClock == nil {
		t.rqClock = rq.NewClock()
	}
	t.rqp = rq.NewProviderWith(t.rqClock)
	root := t.newLeaf(nil, 1)
	t.entry = newInternal(abalg.InternalKind, nil, []*node{root}, 1)
	return t
}

// Elim reports whether publishing elimination is enabled.
func (t *Tree) Elim() bool { return t.elim }

// RQClock returns the linearization clock the tree's range-query
// subsystem runs on (shared with other trees under WithRQClock).
func (t *Tree) RQClock() *rq.Clock { return t.rqp.Clock() }

// root returns the entry's only child.
func (t *Tree) root() *node { return t.entry.inner().ptrs[0].Load() }

// MinSize returns a, MaxSize returns b.
func (t *Tree) MinSize() int { return t.a }

// MaxSize returns the maximum node size b.
func (t *Tree) MaxSize() int { return t.b }
