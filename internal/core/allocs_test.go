package core

// Allocation regression guards for the hot paths ISSUE 3 makes
// allocation-free: steady-state point operations (scan-free) and the
// warmed-up scan fast path. These are hard == 0 assertions — a single
// new allocation on these paths is a regression, not noise.

import "testing"

func allocGuardTree(t *testing.T, opts ...Option) (*Tree, *Thread) {
	t.Helper()
	tr := New(opts...)
	th := tr.NewThread()
	for k := uint64(1); k <= 10_000; k++ {
		th.Insert(k, k)
	}
	return tr, th
}

// TestAllocsSteadyStatePointOps: Get, a present-key Insert (pure read),
// and a delete/insert cycle on a settled OCC tree allocate nothing.
func TestAllocsSteadyStatePointOps(t *testing.T) {
	_, th := allocGuardTree(t)
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

// TestAllocsElimUpdates: publishing updates on a settled Elim-ABtree
// allocate nothing — the ElimRecord is decoded from the leaf's slot
// record (node.go), which the version window writes into spare state
// bits.
func TestAllocsElimUpdates(t *testing.T) {
	_, th := allocGuardTree(t, WithElimination())
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(5000)
		th.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("Elim Delete+Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { th.Upsert(5000, 1) }); avg != 0 {
		t.Errorf("Elim replacing Upsert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(6000)
		th.Upsert(6000, 6000)
	}); avg != 0 {
		t.Errorf("Elim Delete+inserting Upsert allocates %.2f/op, want 0", avg)
	}
}

// TestAllocsScanFastPath: warmed-up weak and snapshot scans allocate
// nothing, across scan lengths spanning one leaf to hundreds.
func TestAllocsScanFastPath(t *testing.T) {
	_, th := allocGuardTree(t)
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

// TestAllocsBatchOps: steady-state batched point operations (batch.go)
// allocate nothing once the Thread's staging scratch is warm — the
// sort, the run formation and the result scatter all live in
// per-Thread/caller buffers. Keys are spread one per leaf (stride 50)
// so the delete/insert cycle never splits or merges.
func TestAllocsBatchOps(t *testing.T) {
	_, th := allocGuardTree(t)
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

// TestAllocsWriteUnderScan: once the version pool is warm, a writer
// preserving pre-write states for an in-flight scan recycles Version
// nodes instead of allocating them.
func TestAllocsWriteUnderScan(t *testing.T) {
	tr, th := allocGuardTree(t)
	sc := tr.rqp.Register()
	cycle := func() {
		ts := sc.Begin()
		_ = ts
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

// TestAllocsStructuralChurn: appending 256 keys and deleting them again
// splits and then merges leaves and internal nodes. The only allocations
// are the replacement nodes themselves (474 of them, as when the staging
// buffers were stack arrays): the structural updates stage in the
// Thread's scratch (abalg.Scratch), so nothing escapes through the seam.
func TestAllocsStructuralChurn(t *testing.T) {
	tr, th := allocGuardTree(t)
	churn := func() {
		for k := uint64(20_001); k <= 20_256; k++ {
			th.Insert(k, k)
		}
		for k := uint64(20_001); k <= 20_256; k++ {
			th.Delete(k)
		}
	}
	churn()
	avg := testing.AllocsPerRun(50, churn)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations per 256-key insert+delete churn", avg)
	if avg > 474 {
		t.Errorf("structural churn allocates %.0f/run, want <= 474 (the nodes)", avg)
	}
}
