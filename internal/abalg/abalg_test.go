package abalg_test

// The structural updates are written once, so their white-box cases are
// too: each case builds the paper's before-picture through the Store
// seam, runs the update, and compares the after-picture — once per node
// store. The point-operation matrix at the end drives the same code
// through all four public trees.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/abalg"
	"repro/internal/abalg/storetest"
	"repro/internal/core"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rq"
)

func TestRebalanceCore(t *testing.T) {
	rebalanceCases(t, func(a, b int) (*core.Thread, func() error) {
		return core.New(core.WithDegree(a, b)).NewThread(), nil
	})
}

func TestRebalancePabtree(t *testing.T) {
	rebalanceCases(t, func(a, b int) (*pabtree.Thread, func() error) {
		tr := pabtree.New(pmem.New(256*pabtree.NodeWords), pabtree.WithDegree(a, b))
		return tr.NewThread(), tr.ValidatePersisted
	})
}

// fixture builds and prints trees through the seam. Pictures read: (k k)
// a leaf, [c k c] an internal node, <c k c> a tagged one.
type fixture[R comparable] struct {
	t *testing.T
	s abalg.Store[R]
	// persisted is the store's own check that nothing was left unflushed.
	persisted func() error
}

// leaf builds a leaf whose key range starts at lo (values are key*10).
func (f fixture[R]) leaf(lo uint64, keys ...uint64) R {
	items := make([]rq.Pair, len(keys))
	for i, k := range keys {
		items[i] = rq.Pair{K: k, V: k * 10}
	}
	return f.s.NewLeaf(items, lo)
}

// node builds an internal node of kind k over children, separated by keys.
func (f fixture[R]) node(k abalg.Kind, lo uint64, keys []uint64, children ...R) R {
	return f.s.NewInternal(k, keys, children, lo)
}

func (f fixture[R]) setRoot(r R) { f.s.SetChild(f.s.Entry(), 0, r) }

func (f fixture[R]) picture(n R) string {
	s := f.s
	var sb strings.Builder
	if s.Kind(n) == abalg.LeafKind {
		items, _, _, _, _, _ := s.AppendLeaf(n, nil, 0, ^uint64(0))
		rq.SortPairs(items)
		for _, it := range items {
			if it.V != it.K*10 {
				f.t.Errorf("key %d carries value %d", it.K, it.V)
			}
			fmt.Fprintf(&sb, " %d", it.K)
		}
		return "(" + strings.TrimPrefix(sb.String(), " ") + ")"
	}
	for i := 0; i < s.Size(n); i++ {
		if i > 0 {
			fmt.Fprintf(&sb, " %d ", s.RoutingKey(n, i-1))
		}
		sb.WriteString(f.picture(s.Child(n, i)))
	}
	if s.Kind(n) == abalg.TaggedKind {
		return "<" + sb.String() + ">"
	}
	return "[" + sb.String() + "]"
}

// want compares the whole tree with pic and, when final, validates it.
func (f fixture[R]) want(pic string, final bool) {
	f.t.Helper()
	if got := f.picture(f.s.Child(f.s.Entry(), 0)); got != pic {
		f.t.Fatalf("tree is\n  %s\nwant\n  %s", got, pic)
	}
	if !final {
		return
	}
	if err := abalg.Validate(f.s); err != nil {
		f.t.Fatal(err)
	}
	if f.persisted != nil {
		if err := f.persisted(); err != nil {
			f.t.Fatal(err)
		}
	}
}

// splitInsert runs the splitting insert of key into the full leaf at
// path, under the locks the operation would hold, and returns the tagged
// node (if any).
func (f fixture[R]) splitInsert(key uint64) R {
	path := abalg.Search(f.s, key, *new(R))
	abalg.Lock(f.s, path.N)
	abalg.Lock(f.s, path.P)
	tagged := abalg.SplitInsert(f.s, path.N, path.P, path.NIdx, key, key*10)
	f.s.UnlockAll()
	return tagged
}

func rebalanceCases[R comparable, S abalg.Store[R]](t *testing.T, mk func(a, b int) (S, func() error)) {
	const I = abalg.InternalKind
	run := func(name string, a, b int, body func(f fixture[R])) {
		t.Run(name, func(t *testing.T) {
			s, persisted := mk(a, b)
			body(fixture[R]{t, s, persisted})
		})
	}
	keys := func(k ...uint64) []uint64 { return k }

	// Figure 3(1): a full root leaf splits under an untagged new root.
	run("SplitRootLeaf", 2, 4, func(f fixture[R]) {
		f.setRoot(f.leaf(1, 1, 2, 3, 4))
		if tagged := f.splitInsert(5); tagged != *new(R) {
			f.t.Fatal("splitting the root leaf returned a tagged node")
		}
		f.want("[(1 2) 3 (3 4 5)]", true)
	})

	// Figures 3(5), 7: a split below the root leaves a tagged node, which
	// fixTagged merges into its parent.
	run("FixTaggedMergesIntoParent", 2, 4, func(f fixture[R]) {
		f.setRoot(f.node(I, 1, keys(10), f.leaf(1, 1, 2, 3, 4), f.leaf(10, 10, 11)))
		tagged := f.splitInsert(5)
		f.want("[<(1 2) 3 (3 4 5)> 10 (10 11)]", false)
		abalg.FixTagged(f.s, tagged)
		f.want("[(1 2) 3 (3 4 5) 10 (10 11)]", true)
	})

	// Figure 6: the parent is full, so fixTagged splits the merged
	// contents; below the root the new top is tagged again and the loop
	// carries it one level up.
	run("FixTaggedSplitsUnderFreshTag", 2, 4, func(f fixture[R]) {
		p := f.node(I, 1, keys(10, 20, 30),
			f.leaf(1, 1, 2, 3, 4), f.leaf(10, 10, 11), f.leaf(20, 20, 21), f.leaf(30, 30, 31))
		q := f.node(I, 100, keys(110), f.leaf(100, 100, 101), f.leaf(110, 110, 111))
		f.setRoot(f.node(I, 1, keys(100), p, q))
		abalg.FixTagged(f.s, f.splitInsert(5))
		f.want("[[(1 2) 3 (3 4 5) 10 (10 11)] 20 [(20 21) 30 (30 31)] 100 [(100 101) 110 (110 111)]]", true)
	})
	run("FixTaggedSplitsTheRoot", 2, 4, func(f fixture[R]) {
		f.setRoot(f.node(I, 1, keys(10, 20, 30),
			f.leaf(1, 1, 2, 3, 4), f.leaf(10, 10, 11), f.leaf(20, 20, 21), f.leaf(30, 30, 31)))
		abalg.FixTagged(f.s, f.splitInsert(5))
		f.want("[[(1 2) 3 (3 4 5) 10 (10 11)] 20 [(20 21) 30 (30 31)]]", true)
	})
	run("FixTaggedOnRemovedNodeIsANoOp", 2, 4, func(f fixture[R]) {
		f.setRoot(f.node(I, 1, keys(10), f.leaf(1, 1, 2, 3, 4), f.leaf(10, 10, 11)))
		tagged := f.splitInsert(5)
		abalg.FixTagged(f.s, tagged)
		abalg.FixTagged(f.s, tagged)
		f.want("[(1 2) 3 (3 4 5) 10 (10 11)]", true)
	})

	// Figure 8: distribute, for leaves and for internal nodes.
	run("DistributeLeaves", 2, 4, func(f fixture[R]) {
		under := f.leaf(10, 10)
		f.setRoot(f.node(I, 1, keys(10), f.leaf(1, 1, 2, 3, 4), under))
		abalg.FixUnderfull(f.s, under)
		f.want("[(1 2 3) 4 (4 10)]", true)
	})
	run("DistributeInternals", 3, 8, func(f fixture[R]) {
		under := f.node(I, 1, keys(10), f.leaf(1, 1, 2, 3), f.leaf(10, 10, 11, 12))
		full := f.node(I, 100, keys(110, 120, 130),
			f.leaf(100, 100, 101, 102), f.leaf(110, 110, 111, 112), f.leaf(120, 120, 121, 122), f.leaf(130, 130, 131, 132))
		f.setRoot(f.node(I, 1, keys(100), under, full))
		abalg.FixUnderfull(f.s, under)
		f.want("[[(1 2 3) 10 (10 11 12) 100 (100 101 102)] 110 [(110 111 112) 120 (120 121 122) 130 (130 131 132)]]", true)
	})

	// Figure 3(2), 9: merge, with the sibling on either side.
	run("MergeLeavesIntoLeftSibling", 2, 4, func(f fixture[R]) {
		under := f.leaf(10, 10)
		f.setRoot(f.node(I, 1, keys(10, 20), f.leaf(1, 1, 2), under, f.leaf(20, 20, 21)))
		abalg.FixUnderfull(f.s, under)
		f.want("[(1 2 10) 20 (20 21)]", true)
	})
	run("MergeLeavesIntoRightSibling", 2, 4, func(f fixture[R]) {
		under := f.leaf(1, 1)
		f.setRoot(f.node(I, 1, keys(10, 20), under, f.leaf(10, 10, 11), f.leaf(20, 20, 21)))
		abalg.FixUnderfull(f.s, under)
		f.want("[(1 10 11) 20 (20 21)]", true)
	})
	run("MergeInternals", 3, 8, func(f fixture[R]) {
		under := f.node(I, 1, keys(10), f.leaf(1, 1, 2, 3), f.leaf(10, 10, 11, 12))
		sib := f.node(I, 100, keys(110, 120),
			f.leaf(100, 100, 101, 102), f.leaf(110, 110, 111, 112), f.leaf(120, 120, 121, 122))
		far := f.node(I, 200, keys(210, 220),
			f.leaf(200, 200, 201, 202), f.leaf(210, 210, 211, 212), f.leaf(220, 220, 221, 222))
		f.setRoot(f.node(I, 1, keys(100, 200), under, sib, far))
		abalg.FixUnderfull(f.s, under)
		f.want("[[(1 2 3) 10 (10 11 12) 100 (100 101 102) 110 (110 111 112) 120 (120 121 122)]"+
			" 200 [(200 201 202) 210 (210 211 212) 220 (220 221 222)]]", true)
	})
	run("MergeCollapsesTheRoot", 2, 4, func(f fixture[R]) {
		under := f.leaf(10, 10)
		f.setRoot(f.node(I, 1, keys(10), f.leaf(1, 1, 2), under))
		abalg.FixUnderfull(f.s, under)
		f.want("(1 2 10)", true)
	})

	// The root may stay below a: with a = 3 a two-child root is legal,
	// and its underfull child must not wait for it to grow (the exemption
	// pabtree's fork had lost).
	run("UnderfullRootParentDoesNotBlock", 3, 8, func(f fixture[R]) {
		under := f.leaf(10, 10, 11)
		f.setRoot(f.node(I, 1, keys(10), f.leaf(1, 1, 2, 3, 4), under))
		abalg.FixUnderfull(f.s, under)
		f.want("[(1 2 3) 4 (4 10 11)]", true)
	})

	// Merging p's only two leaves leaves p with one child and, here, the
	// merged leaf itself underfull (a batched delete emptied both). The
	// parent must be repaired first: fixing the leaf first would wait on
	// its one-child parent, whose repair is this thread's next call.
	run("MergeCascadeRepairsParentFirst", 2, 4, func(f fixture[R]) {
		under := f.leaf(1)
		p := f.node(I, 1, keys(5), under, f.leaf(5, 5))
		q := f.node(I, 100, keys(110), f.leaf(100, 100, 101), f.leaf(110, 110, 111))
		f.setRoot(f.node(I, 1, keys(100), p, q))
		abalg.FixUnderfull(f.s, under)
		f.want("[(5 100 101) 110 (110 111)]", true)
	})

	// The root may be underfull: fixUnderfull returns at once.
	run("FixUnderfullOnTheRootIsANoOp", 2, 4, func(f fixture[R]) {
		root := f.leaf(1, 1)
		f.setRoot(root)
		abalg.FixUnderfull(f.s, root)
		f.want("(1)", true)
	})
}

// TestBatchMixedLeafDepths: a tagged node (a split's temporary extra
// level) puts the leaves below it one level deeper than their cousins.
// The batch descent must serve the runs of every leaf, at both depths,
// with per-key results: finds, then inserts and deletes, each batch
// spanning all four leaves, with a repeated key and absent keys.
func TestBatchMixedLeafDepths(t *testing.T) {
	t.Run("core", func(t *testing.T) {
		batchMixedLeafDepths(t, core.New(core.WithDegree(2, 8)).NewThread(), nil)
	})
	t.Run("pabtree", func(t *testing.T) {
		tr := pabtree.New(pmem.New(64*pabtree.NodeWords), pabtree.WithDegree(2, 8))
		batchMixedLeafDepths(t, tr.NewThread(), tr.ValidatePersisted)
	})
}

func batchMixedLeafDepths[R comparable, S abalg.Store[R]](t *testing.T, s S, persisted func() error) {
	f := fixture[R]{t, s, persisted}
	tagged := f.node(abalg.TaggedKind, 10, []uint64{15}, f.leaf(10, 10, 12), f.leaf(15, 15, 17))
	f.setRoot(f.node(abalg.InternalKind, 1, []uint64{10, 20}, f.leaf(1, 1, 3), tagged, f.leaf(20, 20, 22)))
	model := map[uint64]uint64{}
	for _, k := range []uint64{1, 3, 10, 12, 15, 17, 20, 22} {
		model[k] = k * 10
	}
	// check compares one batch's per-key results with the model, applying
	// the model key by key in input order.
	check := func(op string, keys, res []uint64, ok []bool) {
		t.Helper()
		for i, k := range keys {
			v, present := model[k]
			want := present
			switch op {
			case "insert":
				want = !present
				if !present {
					model[k] = k * 10
				}
			case "delete":
				delete(model, k)
			}
			if ok[i] != want || (present && res[i] != v) {
				t.Errorf("%s key %d (#%d) = (%d, %v), want (%d, %v)", op, k, i, res[i], ok[i], v, want)
			}
		}
	}

	keys := []uint64{22, 12, 3, 17, 11, 1, 16, 20, 12, 25}
	res, ok := make([]uint64, len(keys)), make([]bool, len(keys))
	abalg.FindBatch(f.s, keys, res, ok)
	check("find", keys, res, ok)
	f.want("[(1 3) 10 <(10 12) 15 (15 17)> 20 (20 22)]", false)

	keys = []uint64{16, 2, 21, 12, 11, 18, 16}
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = k * 10
	}
	res, ok = make([]uint64, len(keys)), make([]bool, len(keys))
	abalg.InsertBatch(f.s, keys, vals, res, ok)
	check("insert", keys, res, ok)
	f.want("[(1 2 3) 10 <(10 11 12) 15 (15 16 17 18)> 20 (20 21 22)]", false)

	keys = []uint64{3, 12, 22, 5, 16, 12}
	res, ok = make([]uint64, len(keys)), make([]bool, len(keys))
	abalg.DeleteBatch(f.s, keys, res, ok)
	check("delete", keys, res, ok)
	f.want("[(1 2) 10 <(10 11) 15 (15 17 18)> 20 (20 21)]", false)

	abalg.FixTagged(f.s, tagged)
	f.want("[(1 2) 10 (10 11) 15 (15 17 18) 20 (20 21)]", true)
}

// TestValidateRejects: the shared checker catches each invariant it
// lists, on both stores — including the searchKey rule.
func TestValidateRejects(t *testing.T) {
	t.Run("core", func(t *testing.T) {
		validateRejects(t, func() *core.Thread { return core.New(core.WithDegree(2, 4)).NewThread() })
	})
	t.Run("pabtree", func(t *testing.T) {
		validateRejects(t, func() *pabtree.Thread {
			return pabtree.New(pmem.New(64*pabtree.NodeWords), pabtree.WithDegree(2, 4)).NewThread()
		})
	})
}

func validateRejects[R comparable, S abalg.Store[R]](t *testing.T, mk func() S) {
	const I = abalg.InternalKind
	keys := func(k ...uint64) []uint64 { return k }
	for name, build := range map[string]func(f fixture[R]) R{
		"searchKey 5 is not the lower bound": func(f fixture[R]) R {
			return f.node(I, 1, keys(10), f.leaf(5, 5, 6), f.leaf(10, 10, 11))
		},
		"tagged node present": func(f fixture[R]) R {
			return f.node(abalg.TaggedKind, 1, keys(10), f.leaf(1, 1, 2), f.leaf(10, 10, 11))
		},
		"node size 1 outside [2, 4]": func(f fixture[R]) R {
			return f.node(I, 1, keys(10), f.leaf(1, 1), f.leaf(10, 10, 11))
		},
		"leaf key 12 outside key range [1, 10)": func(f fixture[R]) R {
			return f.node(I, 1, keys(10), f.leaf(1, 1, 12), f.leaf(10, 10, 11))
		},
		"duplicate key 3": func(f fixture[R]) R {
			return f.node(I, 1, keys(10), f.leaf(1, 3, 3), f.leaf(10, 10, 11))
		},
		"leaf at depth 2, expected 1": func(f fixture[R]) R {
			return f.node(I, 1, keys(10), f.leaf(1, 1, 2),
				f.node(I, 10, keys(20), f.leaf(10, 10, 11), f.leaf(20, 20, 21)))
		},
		"routing key 10 at index 1 not increasing": func(f fixture[R]) R {
			return f.node(I, 1, keys(10, 10), f.leaf(1, 1, 2), f.leaf(10, 10, 11), f.leaf(10, 12, 13))
		},
		"is marked": func(f fixture[R]) R {
			l := f.leaf(1, 1, 2)
			abalg.Lock(f.s, l)
			f.s.Unlink(l)
			f.s.UnlockAll()
			return f.node(I, 1, keys(10), l, f.leaf(10, 10, 11))
		},
	} {
		f := fixture[R]{t: t, s: mk()}
		f.setRoot(build(f))
		if err := abalg.Validate(f.s); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("Validate = %v, want an error containing %q", err, name)
		}
	}
}

// TestDeleteToEmptyDegreeMatrix fills each of the four trees at each
// degree and deletes every key again, so every leaf and internal node on
// the way down is merged away and the root is left below a. Run under
// -timeout: at the parent commit the p-OCC-ABtree at (3,8) spun forever
// in fixUnderfull, waiting for its two-child root to grow.
func TestDeleteToEmptyDegreeMatrix(t *testing.T) {
	const n = 2000
	for _, tc := range storetest.All {
		for _, d := range [][2]int{{2, 4}, {2, 11}, {3, 8}, {4, 11}, {5, 11}} {
			t.Run(fmt.Sprintf("%s/a%d-b%d", tc.Name, d[0], d[1]), func(t *testing.T) {
				tr := tc.Open(d[0], d[1], 4096)
				th := tr.Thread()
				for k := uint64(1); k <= n; k++ {
					if _, ok := th.Insert(k, k); !ok {
						t.Fatalf("Insert(%d) found the key present", k)
					}
				}
				if err := tr.Validate(); err != nil || tr.Len() != n {
					t.Fatalf("after the inserts: Validate = %v, Len = %d", err, tr.Len())
				}
				for k := uint64(1); k <= n; k++ {
					if v, ok := th.Delete(k); !ok || v != k {
						t.Fatalf("Delete(%d) = (%d, %v)", k, v, ok)
					}
				}
				if err := tr.Validate(); err != nil || tr.Len() != 0 {
					t.Fatalf("after deleting every key: Validate = %v, Len = %d", err, tr.Len())
				}
			})
		}
	}
}
