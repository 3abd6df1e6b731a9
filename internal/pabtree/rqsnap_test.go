package pabtree

import "testing"

// TestRangeSnapshotAfterRecover checks the volatile snapshot machinery
// starts clean on a recovered tree.
func TestRangeSnapshotAfterRecover(t *testing.T) {
	a := arena()
	tr := New(a)
	th := tr.NewThread()
	for k := uint64(1); k <= 200; k++ {
		th.Insert(k, k)
	}
	th.RangeSnapshot(1, 200, func(k, v uint64) bool { return true })
	a.Crash(1.0, 42) // evict nothing: fully persisted state survives
	rec := Recover(a)
	rh := rec.NewThread()
	var n int
	rh.RangeSnapshot(1, 200, func(k, v uint64) bool {
		if k != v {
			t.Fatalf("recovered pair (%d,%d)", k, v)
		}
		n++
		return true
	})
	if n != 200 {
		t.Fatalf("recovered snapshot saw %d keys, want 200", n)
	}
	scans, _ := rec.RQStats()
	if scans != 1 {
		t.Fatalf("recovered provider counted %d scans, want 1", scans)
	}
}
