package pabtree

// Allocation regression guards for the persistent trees, mirroring
// internal/core/allocs_test.go: steady-state point operations
// (scan-free) and the warmed-up scan fast path allocate nothing.

import (
	"testing"

	"repro/internal/pmem"
)

func allocGuardTree(t *testing.T, opts ...Option) (*Tree, *Thread) {
	t.Helper()
	tr := New(pmem.New(1<<20), opts...)
	th := tr.NewThread()
	for k := uint64(1); k <= 10_000; k++ {
		th.Insert(k, k)
	}
	return tr, th
}

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

// TestAllocsElimUpdates mirrors internal/core's guard: publishing updates
// on a settled p-Elim-ABtree allocate nothing. The record is the slot the
// update wrote, in spare bits of the leaf's size word (vnode), not a
// heap object per publish.
func TestAllocsElimUpdates(t *testing.T) {
	_, th := allocGuardTree(t, WithElimination())
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(5000)
		th.Insert(5000, 5000)
	}); avg != 0 {
		t.Errorf("p-Elim Delete+Insert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { th.Upsert(5000, 1) }); avg != 0 {
		t.Errorf("p-Elim replacing Upsert allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		th.Delete(6000)
		th.Upsert(6000, 6000)
	}); avg != 0 {
		t.Errorf("p-Elim Delete+inserting Upsert allocates %.2f/op, want 0", avg)
	}
}

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

// TestAllocsBatchOps mirrors internal/core's guard: steady-state
// batched point operations allocate nothing once the Thread's staging
// scratch is warm. Keys are spread one per leaf (stride 50) so the
// delete/insert cycle never splits or merges.
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
// splits and then merges leaves and internal nodes. Nodes are arena
// slots and the structural updates stage in the Thread's scratch
// (abalg.Scratch), so once the epoch limbo lists have grown the churn
// allocates nothing (580 per run when each rebalance made its buffers).
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
	if avg > 0 {
		t.Errorf("structural churn allocates %.0f/run, want 0", avg)
	}
}
