package pabtree

// The epoch rule of the path-cached scan fast path, which only this
// store has. The differential of the cached scan against a full
// re-descent is storetest.ScanPathCacheDifferential.

import (
	"testing"

	"repro/internal/pmem"
)

// TestScanPathResetPerEpochSection pins the epoch rule of the cached
// scan path: an arena offset names the same node only inside the epoch
// critical section it was read in, so every scan call drops the path
// on entry (scanEnter). The test warms the cache, retires the
// nodes on it and recycles their slots as different nodes, then scans
// again: a path carried over from the earlier call would resume the
// descent at a recycled slot and read some other part of the tree.
func TestScanPathResetPerEpochSection(t *testing.T) {
	tr := New(pmem.New(1<<14*NodeWords), WithDegree(2, 4))
	th := tr.NewThread()
	shadow := map[uint64]uint64{}
	for k := uint64(1); k <= 2000; k++ {
		th.Insert(k, k)
		shadow[k] = k
	}
	// Warm the cache: it ends on the path to the leaf of key 1000.
	th.Range(1, 1000, func(k, v uint64) bool { return true })
	// Delete everything at or below 1000: the merges replace every node
	// on that path. Flush hands their slots back to the free list, and
	// inserts elsewhere reuse them for new nodes of other key ranges.
	for k := uint64(1); k <= 1000; k++ {
		th.Delete(k)
		delete(shadow, k)
	}
	th.eh.Flush()
	for k := uint64(5001); k <= 8000; k++ {
		th.Insert(k, k)
		shadow[k] = k
	}
	for name, scan := range map[string]func(lo, hi uint64, fn func(k, v uint64) bool){
		"Range": th.Range, "RangeSnapshot": th.RangeSnapshot,
	} {
		got := 0
		prev := uint64(0)
		scan(1, 10_000, func(k, v uint64) bool {
			if k <= prev || shadow[k] != v {
				t.Errorf("%s reported %d=%d after %d", name, k, v, prev)
				return false
			}
			prev = k
			got++
			return true
		})
		if got != len(shadow) {
			t.Errorf("%s reported %d pairs, want %d", name, got, len(shadow))
		}
	}
}
