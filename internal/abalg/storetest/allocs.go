package storetest

// Allocation regression guards for the hot paths: steady-state point
// operations (scan-free), publishing updates, the warmed-up scan fast
// path, batches, writes under a scan, and structural churn. Except for
// churn's bound, which is the store's, these are hard == 0 assertions —
// a single new allocation on these paths is a regression, not noise.

import (
	"testing"

	"repro/internal/pabtree"
)

// allocGuardTree opens a tree of kind k prefilled with keys 1..10 000.
func allocGuardTree(k Kind) (Tree, Handle) {
	tr := k.Open(2, 11, 1<<20/pabtree.NodeWords)
	th := tr.Thread()
	for key := uint64(1); key <= 10_000; key++ {
		th.Insert(key, key)
	}
	return tr, th
}

// AllocsSteadyStatePointOps: Get, a present-key Insert (pure read), and
// a delete/insert cycle on a settled tree allocate nothing.
func AllocsSteadyStatePointOps(t *testing.T, k Kind) {
	_, th := allocGuardTree(k)
	if avg := testing.AllocsPerRun(200, func() { th.Find(7777) }); avg != 0 {
		t.Errorf("Find allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { th.Insert(7777, 1) }); avg != 0 {
		t.Errorf("present-key Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(5000)
		th.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("steady-state Delete+Insert allocates %.2f/op, want 0", avg)
	}
}

// AllocsElimUpdates: publishing updates on a settled Elim tree of kind k
// allocate nothing. The record is the slot the update wrote, kept in
// spare bits of the leaf's size word, not a heap object per publish.
func AllocsElimUpdates(t *testing.T, k Kind) {
	_, th := allocGuardTree(k)
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(5000)
		th.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("%s Delete+Insert allocates %.2f/op, want 0", k.Name, avg)
	}
	if avg := testing.AllocsPerRun(200, func() { th.Upsert(5000, 1) }); avg != 0 {
		t.Errorf("%s replacing Upsert allocates %.2f/op, want 0", k.Name, avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(6000)
		th.Upsert(6000, 6000)
	}); avg != 0 {
		t.Errorf("%s Delete+inserting Upsert allocates %.2f/op, want 0", k.Name, avg)
	}
}

// AllocsScanFastPath: warmed-up weak and snapshot scans allocate
// nothing, across scan lengths spanning one leaf to hundreds.
func AllocsScanFastPath(t *testing.T, k Kind) {
	_, th := allocGuardTree(k)
	var sink uint64
	fn := func(_, v uint64) bool {
		sink += v
		return true
	}
	th.RangeSnapshot(1, 10, fn) // register the scanner outside the measurement
	for _, scanlen := range []uint64{5, 100, 2000} {
		if avg := testing.AllocsPerRun(100, func() { th.Range(3000, 3000+scanlen-1, fn) }); avg != 0 {
			t.Errorf("Range scanlen=%d allocates %.2f/op, want 0", scanlen, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { th.RangeSnapshot(3000, 3000+scanlen-1, fn) }); avg != 0 {
			t.Errorf("RangeSnapshot scanlen=%d allocates %.2f/op, want 0", scanlen, avg)
		}
	}
	_ = sink
}

// AllocsBatchOps: steady-state batched point operations allocate
// nothing once the Thread's staging scratch is warm — the sort, the run
// formation and the result scatter all live in per-Thread/caller
// buffers. Keys are spread one per leaf (stride 50) so the delete/insert
// cycle never splits or merges.
func AllocsBatchOps(t *testing.T, k Kind) {
	_, th := allocGuardTree(k)
	const n = 64
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	res := make([]uint64, n)
	ok := make([]bool, n)
	for i := range keys {
		keys[i] = uint64(1000 + 50*i)
		vals[i] = keys[i]
	}
	th.FindBatch(keys, res, ok) // warm the staging scratch
	if avg := testing.AllocsPerRun(200, func() { th.FindBatch(keys, res, ok) }); avg != 0 {
		t.Errorf("FindBatch allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { th.InsertBatch(keys, vals, res, ok) }); avg != 0 {
		t.Errorf("present-key InsertBatch allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		th.DeleteBatch(keys, res, ok)
		th.InsertBatch(keys, vals, res, ok)
	}); avg != 0 {
		t.Errorf("steady-state DeleteBatch+InsertBatch allocates %.2f/op, want 0", avg)
	}
}

// AllocsWriteUnderScan: once the version pool is warm, a writer
// preserving pre-write states for an in-flight scan recycles Version
// nodes instead of allocating them.
func AllocsWriteUnderScan(t *testing.T, k Kind) {
	tr, th := allocGuardTree(k)
	sc := tr.Register()
	cycle := func() {
		sc.Begin()
		th.Delete(5000)
		th.Insert(5000, 5000)
		sc.End()
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the pool
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("write under scan allocates %.2f/op after warm-up, want 0", avg)
	}
}

// AllocsStructuralChurn: appending 256 keys and deleting them again
// splits and then merges leaves and internal nodes. The structural
// updates stage in the Thread's scratch (abalg.Scratch), so nothing
// escapes through the seam: the only allocations left are the store's
// new nodes, at most limit per run.
func AllocsStructuralChurn(t *testing.T, k Kind, limit float64) {
	tr, th := allocGuardTree(k)
	churn := func() {
		for key := uint64(20_001); key <= 20_256; key++ {
			th.Insert(key, key)
		}
		for key := uint64(20_001); key <= 20_256; key++ {
			th.Delete(key)
		}
	}
	churn()
	avg := testing.AllocsPerRun(50, churn)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per 256-key insert+delete churn", avg)
	if avg > limit {
		t.Errorf("structural churn allocates %.0f/run, want <= %.0f (the nodes)", avg, limit)
	}
}
