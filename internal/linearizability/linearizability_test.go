package linearizability

import (
	"fmt"
	"testing"

	"repro/internal/bcco10"
	"repro/internal/bwtree"
	"repro/internal/cbtree"
	"repro/internal/cist"
	"repro/internal/core"
	"repro/internal/olcart"
	"repro/internal/pabtree"
	"repro/internal/pmem"
)

func TestSequentialHistoriesAccepted(t *testing.T) {
	// insert(1)=ok; find=1 v; delete=ok v; find=absent — trivially valid.
	h := []Op{
		{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 2},
		{Kind: OpFind, Key: 1, OutVal: 10, OutOK: true, Call: 3, Return: 4},
		{Kind: OpDelete, Key: 1, OutVal: 10, OutOK: true, Call: 5, Return: 6},
		{Kind: OpFind, Key: 1, Call: 7, Return: 8},
	}
	if err := Check(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaleReadRejected(t *testing.T) {
	// A find that returns absent AFTER an insert completed (no overlap)
	// is not linearizable.
	h := []Op{
		{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 2},
		{Kind: OpFind, Key: 1, OutOK: false, Call: 3, Return: 4},
	}
	if err := Check(h, nil); err == nil {
		t.Fatal("stale read accepted")
	}
}

func TestOverlappingReadAccepted(t *testing.T) {
	// The same stale-looking read IS linearizable when it overlaps the
	// insert (it can linearize first).
	h := []Op{
		{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 4},
		{Kind: OpFind, Key: 1, OutOK: false, Call: 2, Return: 3},
	}
	if err := Check(h, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLostUpdateRejected(t *testing.T) {
	// Two sequential successful inserts of the same key with no delete
	// between them cannot both report "inserted".
	h := []Op{
		{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 2},
		{Kind: OpInsert, Key: 1, Arg: 20, OutOK: true, Call: 3, Return: 4},
	}
	if err := Check(h, nil); err == nil {
		t.Fatal("double insert accepted")
	}
}

func TestWrongDeleteValueRejected(t *testing.T) {
	h := []Op{
		{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 2},
		{Kind: OpDelete, Key: 1, OutVal: 99, OutOK: true, Call: 3, Return: 4},
	}
	if err := Check(h, nil); err == nil {
		t.Fatal("delete of phantom value accepted")
	}
}

func TestUpsertHistories(t *testing.T) {
	// upsert overlapping a find: the find may return either value.
	for _, v := range []uint64{10, 20} {
		h := []Op{
			{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 2},
			{Kind: OpUpsert, Key: 1, Arg: 20, Call: 3, Return: 6},
			{Kind: OpFind, Key: 1, OutVal: v, OutOK: true, Call: 4, Return: 5},
		}
		if err := Check(h, nil); err != nil {
			t.Fatalf("find=%d: %v", v, err)
		}
	}
	// But not a third value.
	h := []Op{
		{Kind: OpInsert, Key: 1, Arg: 10, OutOK: true, Call: 1, Return: 2},
		{Kind: OpUpsert, Key: 1, Arg: 20, Call: 3, Return: 6},
		{Kind: OpFind, Key: 1, OutVal: 99, OutOK: true, Call: 4, Return: 5},
	}
	if err := Check(h, nil); err == nil {
		t.Fatal("phantom value accepted")
	}
}

func TestInitialStateRespected(t *testing.T) {
	h := []Op{{Kind: OpFind, Key: 5, OutVal: 50, OutOK: true, Call: 1, Return: 2}}
	if err := Check(h, map[uint64]uint64{5: 50}); err != nil {
		t.Fatal(err)
	}
	if err := Check(h, nil); err == nil {
		t.Fatal("read of absent key accepted")
	}
}

// TestTreesProduceLinearizableHistories is the real payoff: record
// concurrent histories from every tree variant and verify them against
// the dictionary specification.
func TestTreesProduceLinearizableHistories(t *testing.T) {
	keys := []uint64{1, 2, 3, 4}
	for _, tc := range []struct {
		name string
		mk   func() func() DictHandle
		ups  bool
	}{
		{"OCC", func() func() DictHandle {
			tr := core.New()
			return func() DictHandle { return tr.NewThread() }
		}, true},
		// The paper's insert/delete/find mix, without upserts, on each
		// Elim tree; the "-upserts" cases add the §7 replace records.
		{"Elim", func() func() DictHandle {
			tr := core.New(core.WithElimination())
			return func() DictHandle { return tr.NewThread() }
		}, false},
		{"Elim-upserts", func() func() DictHandle {
			tr := core.New(core.WithElimination())
			return func() DictHandle { return tr.NewThread() }
		}, true},
		{"pOCC", func() func() DictHandle {
			tr := pabtree.New(pmem.New(1 << 16))
			return func() DictHandle { return tr.NewThread() }
		}, true},
		{"pElim", func() func() DictHandle {
			tr := pabtree.New(pmem.New(1<<16), pabtree.WithElimination())
			return func() DictHandle { return tr.NewThread() }
		}, false},
		{"pElim-upserts", func() func() DictHandle {
			tr := pabtree.New(pmem.New(1<<16), pabtree.WithElimination())
			return func() DictHandle { return tr.NewThread() }
		}, true},
		{"BCCO10", func() func() DictHandle {
			tr := bcco10.New()
			return func() DictHandle { return tr }
		}, false},
		{"CBTree", func() func() DictHandle {
			tr := cbtree.New()
			return func() DictHandle { return tr }
		}, false},
		{"OLC-ART", func() func() DictHandle {
			tr := olcart.New()
			return func() DictHandle { return tr }
		}, false},
		{"C-IST", func() func() DictHandle {
			tr := cist.New()
			return func() DictHandle { return tr }
		}, false},
		{"OpenBw", func() func() DictHandle {
			tr := bwtree.New()
			return func() DictHandle { return tr }
		}, false},
	} {
		for seed := uint64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				hist := Record(tc.mk(), RecordConfig{
					Workers:   4,
					OpsPerKey: 24,
					Keys:      keys,
					Seed:      seed,
					Upserts:   tc.ups,
				})
				if len(hist) != len(keys)*24 {
					t.Fatalf("recorded %d ops, want %d", len(hist), len(keys)*24)
				}
				if err := Check(hist, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
