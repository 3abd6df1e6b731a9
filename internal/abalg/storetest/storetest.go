// Package storetest is the conformance suite of the (a,b)-tree
// algorithm in internal/abalg. The algorithm is written once over the
// abalg.Store seam, so every store-agnostic test of the four trees —
// OCC-, Elim-, p-OCC- and p-Elim-ABtree — is written once too, here, as
// a body that drives a Tree through a Thread's public operations.
//
// internal/core and internal/pabtree run each body on their own two
// trees through one-line wrappers (conformance_test.go) that keep their
// test IDs and subtest names; internal/abalg runs its engine tests on
// all four, and the point-op, stress, upsert and snapshot-differential
// bodies on all four at degree (4,11), one the store packages do not run
// them at. What stays in a store's package is what only
// that store has: node layouts and sizes, downcasts, tombstones, heap
// per key, flush counts, crash points and recovery.
//
// Only tests import this package.
package storetest

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/abalg"
	"repro/internal/core"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rq"
)

// Handle is what the bodies drive: a *core.Thread or a *pabtree.Thread.
type Handle interface {
	Insert(k, v uint64) (uint64, bool)
	Delete(k uint64) (uint64, bool)
	Find(k uint64) (uint64, bool)
	Upsert(k, v uint64)
	Range(lo, hi uint64, fn func(k, v uint64) bool)
	RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool)
	RangeSnapshotAt(ts, lo, hi uint64, fn func(k, v uint64) bool)
	FindBatch(keys, vals []uint64, found []bool)
	InsertBatch(keys, vals, prev []uint64, inserted []bool)
	DeleteBatch(keys, prev []uint64, deleted []bool)
}

// Tree is one opened tree.
type Tree struct {
	Thread func() Handle
	// Validate checks the structural invariants and, on a persistent
	// tree, that every durable field is persisted (ValidatePersisted).
	Validate  func() error
	Len       func() int
	KeySum    func() uint64
	Height    func() int
	Shape     func() abalg.Stats
	Scan      func(fn func(k, v uint64))
	RQStats   func() (scans, versions uint64)
	RQPairs   func() uint64 // pairs pushed into version chains (rq.Provider.Pairs)
	ElimStats func() (inserts, deletes, upserts uint64)
	// Register registers a scanner on the tree's range-query clock.
	Register func() *rq.Scanner
	// NoScanCache turns a Thread's scan path cache off: every scan hop
	// re-descends from the root.
	NoScanCache func(th Handle)
	// LongestChain walks the quiescent tree through the seam and returns
	// the longest version chain hanging off a reachable leaf.
	LongestChain func() int
}

// Kind names one kind of tree; Open builds one at degree (a, b), and
// slots sizes a persistent tree's arena, in node slots.
type Kind struct {
	Name string
	Open func(a, b, slots int) Tree
}

// The four trees.
var (
	OCC   = Kind{"OCC-ABtree", volatile()}
	Elim  = Kind{"Elim-ABtree", volatile(core.WithElimination())}
	POCC  = Kind{"p-OCC-ABtree", durable()}
	PElim = Kind{"p-Elim-ABtree", durable(pabtree.WithElimination())}

	All = []Kind{OCC, Elim, POCC, PElim}
)

// Named returns k under the subtest name name.
func (k Kind) Named(name string) Kind {
	k.Name = name
	return k
}

// Degree returns k pinned to degree (a, b), whatever degree a body asks
// for.
func (k Kind) Degree(a, b int) Kind {
	open := k.Open
	k.Open = func(_, _, slots int) Tree { return open(a, b, slots) }
	return k
}

func volatile(opts ...core.Option) func(a, b, slots int) Tree {
	return func(a, b, _ int) Tree {
		tr := core.New(append(opts, core.WithDegree(a, b))...)
		return Tree{
			Thread:       func() Handle { return tr.NewThread() },
			Validate:     tr.Validate,
			Len:          tr.Len,
			KeySum:       tr.KeySum,
			Height:       tr.Height,
			Shape:        tr.Stats,
			Scan:         tr.Scan,
			RQStats:      tr.RQStats,
			RQPairs:      func() uint64 { return tr.NewThread().RQ().Pairs() },
			ElimStats:    tr.ElimStats,
			Register:     tr.RQClock().Register,
			NoScanCache:  func(th Handle) { th.(*core.Thread).Scratch().NoScanCache = true },
			LongestChain: func() int { return longestChain(tr.NewThread()) },
		}
	}
}

func durable(opts ...pabtree.Option) func(a, b, slots int) Tree {
	return func(a, b, slots int) Tree {
		tr := pabtree.New(pmem.New(slots*pabtree.NodeWords), append(opts, pabtree.WithDegree(a, b))...)
		return Tree{
			Thread: func() Handle { return tr.NewThread() },
			Validate: func() error {
				if err := tr.Validate(); err != nil {
					return err
				}
				return tr.ValidatePersisted()
			},
			Len:          tr.Len,
			KeySum:       tr.KeySum,
			Height:       tr.Height,
			Shape:        func() abalg.Stats { return tr.Stats().Stats },
			Scan:         tr.Scan,
			RQStats:      tr.RQStats,
			RQPairs:      func() uint64 { return tr.NewThread().RQ().Pairs() },
			ElimStats:    tr.ElimStats,
			Register:     tr.RQClock().Register,
			NoScanCache:  func(th Handle) { th.(*pabtree.Thread).Scratch().NoScanCache = true },
			LongestChain: func() int { return longestChain(tr.NewThread()) },
		}
	}
}

func longestChain[R comparable](s abalg.Store[R]) int {
	var walk func(n R) int
	walk = func(n R) int {
		if s.Kind(n) == abalg.LeafKind {
			depth := 0
			for v := s.LeafState(n).Vers.Load(); v != nil; v = v.Next() {
				depth++
			}
			return depth
		}
		longest := 0
		for i := 0; i < s.Size(n); i++ {
			longest = max(longest, walk(s.Child(n, i)))
		}
		return longest
	}
	return walk(s.Child(s.Entry(), 0))
}

// ForEach runs body once per kind, as a subtest under the kind's name,
// on a tree opened at degree (a, b) with an arena of slots node slots
// for the persistent ones.
func ForEach(t *testing.T, kinds []Kind, a, b, slots int, body func(t *testing.T, tr Tree)) {
	t.Helper()
	for _, k := range kinds {
		t.Run(k.Name, func(t *testing.T) { body(t, k.Open(a, b, slots)) })
	}
}

// Churn runs writers goroutines, each applying random updates (value =
// key) to keys drawn by key until stop is called, or until it has
// applied limit of them if limit > 0. A limit keeps a writer from eating
// a full scheduler slice at every yield of the goroutine under test when
// GOMAXPROCS is 1, and bounds the slots a persistent tree's reclamation
// must keep up with.
func Churn(tr Tree, writers, limit int, seed int64, key func(rng *rand.Rand) uint64) (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			th := tr.Thread()
			for n := 0; (limit <= 0 || n < limit) && !done.Load(); n++ {
				if k := key(rng); rng.Intn(2) == 0 {
					th.Delete(k)
				} else {
					th.Insert(k, k)
				}
			}
		}(seed + int64(w))
	}
	return func() {
		done.Store(true)
		wg.Wait()
	}
}

// opsSlots sizes a persistent tree's arena for the point-operation
// bodies, in node slots: the largest key range they use needs a few
// thousand live nodes, and epoch reclamation recycles what churn
// retires.
const opsSlots = 1 << 15
