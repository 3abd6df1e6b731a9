package core

import (
	"testing"

	"repro/internal/abalg"
)

// TestTombstoneNeverResurrects: an Elim-ABtree's publishing delete leaves
// its pair in the leaf as the tombstone (node.go). With no later write to
// that leaf, the deleted key must be absent from every reader — Find,
// FindBatch, Range, RangeSnapshot, KeySum, Len, Validate, then Delete
// (returns false) and Insert (inserts) — and it must stay absent after
// the leaf splits and after it merges. Each scenario first checks,
// white-box, that the tombstone is really there.
func TestTombstoneNeverResurrects(t *testing.T) {
	for _, sc := range []struct {
		name string
		// replace changes what holds the tombstoned leaf's range; it
		// returns true if the leaf was replaced with its tombstone
		// frozen in place, so lock-free readers holding it must still
		// skip the slot.
		replace func(tt *tombTree, t *testing.T) (frozen bool)
	}{
		{"quiet", func(*tombTree, *testing.T) bool { return false }},
		{"split", (*tombTree).split},
		{"merge", (*tombTree).merge},
	} {
		t.Run(sc.name, func(t *testing.T) {
			tt := newTombTree(t)
			frozen := sc.replace(tt, t)
			if frozen {
				if !tt.leaf.isMarked() {
					t.Fatal("the tombstoned leaf was not replaced")
				}
				// Find's double collect and the pre-lock phase's single
				// scan both read the leaf as this one-key AppendLeaf.
				if items, _, _, _, _, _ := tt.th.AppendLeaf(&tt.leaf.node, nil, tt.dead, tt.dead); len(items) != 0 {
					t.Error("a one-key read found the deleted key in the frozen (marked) leaf")
				}
				if key, val, kind, ver := tt.th.Record(&tt.leaf.node); key != 0 || val != 0 || kind != 0 || ver != 0 {
					t.Errorf("a marked leaf serves the record (%d, %d, %d, %d)", key, val, kind, ver)
				}
			}
			tt.checkAbsent(t)
		})
	}
}

// tombTree is an Elim-ABtree over keys 100, 200, ... in which the leaf
// holding dead has lost its three smallest keys and then dead itself,
// so it holds two keys, three empty slots below the tombstone, and the
// tombstone. model is the tree's expected contents.
type tombTree struct {
	tr    *Tree
	th    *Thread
	dead  uint64
	leaf  *leaf
	model map[uint64]uint64
}

func newTombTree(t *testing.T) *tombTree {
	t.Helper()
	tt := &tombTree{tr: New(WithElimination()), model: map[uint64]uint64{}}
	tt.th = tt.tr.NewThread()
	for k := uint64(100); k <= 10_000; k += 100 {
		tt.th.Insert(k, k+1)
		tt.model[k] = k + 1
	}
	path := abalg.Search[*node](tt.th, 5_000, nil)
	tt.leaf = path.N.leaf()
	if path.NIdx+1 >= int(path.P.nchildren) || tt.leaf.size() != 6 {
		t.Fatalf("leaf of key 5000 has size %d at child %d of %d: the build no longer gives this test its shape",
			tt.leaf.size(), path.NIdx, path.P.nchildren)
	}
	keys := gatherPairs(tt.tr, tt.leaf, nil)
	for _, p := range keys[:3] {
		tt.del(t, p.K)
	}
	tt.dead = keys[3].K
	tt.del(t, tt.dead)

	// White-box: the pair is still in its slot, which the state word
	// names as the tombstone, and the earlier deletes' slots below it
	// are really empty (each later window wrote ⊥ into them).
	tomb := tombstone(tt.leaf.state.Load())
	if tomb < 0 || tt.leaf.keys[tomb].Load() != tt.dead || tt.leaf.size() != 2 {
		t.Fatalf("no tombstone for %d: state %#x", tt.dead, tt.leaf.state.Load())
	}
	below := 0
	for i := 0; i < tomb; i++ {
		if tt.leaf.keys[i].Load() == emptyKey {
			below++
		}
	}
	if below != 3 {
		t.Fatalf("%d empty slots below the tombstone, want 3", below)
	}
	return tt
}

func (tt *tombTree) del(t *testing.T, k uint64) {
	t.Helper()
	if _, ok := tt.th.Delete(k); !ok {
		t.Fatalf("Delete(%d) found nothing", k)
	}
	delete(tt.model, k)
}

// split inserts fresh keys into the tombstoned leaf's range until the
// leaf splits. The first insert lands in an empty slot below the
// tombstone, so only its window's ⊥ write keeps dead from reappearing.
func (tt *tombTree) split(t *testing.T) bool {
	for k := tt.dead + 1; !tt.leaf.isMarked(); k++ {
		if k == tt.dead+100 {
			t.Fatal("the tombstoned leaf never split")
		}
		if _, ok := tt.th.Insert(k, k+1); !ok {
			t.Fatalf("Insert(%d) found the key present", k)
		}
		tt.model[k] = k + 1
	}
	return false
}

// merge empties the right sibling down to one key without touching the
// tombstoned leaf: the sibling's repair merges the two (2 + 1 < 2a
// keys), gathering the tombstoned leaf's pairs under its lock.
func (tt *tombTree) merge(t *testing.T) bool {
	path := abalg.Search[*node](tt.th, tt.dead, nil)
	right := path.P.inner().ptrs[path.NIdx+1].Load().leaf()
	keys := gatherPairs(tt.tr, right, nil)
	for _, p := range keys[1:] {
		tt.del(t, p.K)
	}
	return true
}

// checkAbsent asserts that dead is absent from every reader, then that
// Delete finds nothing and Insert inserts.
func (tt *tombTree) checkAbsent(t *testing.T) {
	t.Helper()
	tr, th, dead := tt.tr, tt.th, tt.dead
	if v, ok := th.Find(dead); ok {
		t.Errorf("Find(%d) = %d: the deleted key resurrected", dead, v)
	}
	keys := []uint64{dead - 100, dead, dead + 100}
	vals, found := make([]uint64, 3), make([]bool, 3)
	th.FindBatch(keys, vals, found)
	if found[1] {
		t.Errorf("FindBatch found the deleted key %d", dead)
	}
	for name, scan := range map[string]func(lo, hi uint64, fn func(k, v uint64) bool){
		"Range": th.Range, "RangeSnapshot": th.RangeSnapshot,
	} {
		n := 0
		scan(1, ^uint64(0), func(k, v uint64) bool {
			if k == dead || tt.model[k] != v {
				t.Errorf("%s reported (%d, %d)", name, k, v)
			}
			n++
			return true
		})
		if n != len(tt.model) {
			t.Errorf("%s reported %d pairs, want %d", name, n, len(tt.model))
		}
	}
	var sum uint64
	for k := range tt.model {
		sum += k
	}
	if got := tr.KeySum(); got != sum {
		t.Errorf("KeySum %d, want %d", got, sum)
	}
	if got := tr.Len(); got != len(tt.model) {
		t.Errorf("Len %d, want %d", got, len(tt.model))
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if _, ok := th.Delete(dead); ok {
		t.Errorf("Delete(%d) removed the deleted key again", dead)
	}
	if old, ok := th.Insert(dead, 7); !ok {
		t.Errorf("Insert(%d) = (%d, false): the deleted key resurrected", dead, old)
	}
	if v, ok := th.Find(dead); !ok || v != 7 {
		t.Errorf("Find(%d) after reinsert = (%d, %v), want (7, true)", dead, v, ok)
	}
}
