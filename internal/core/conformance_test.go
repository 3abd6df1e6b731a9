package core_test

// The store-agnostic tests of the OCC- and Elim-ABtree: each is a
// one-line wrapper that runs its body from internal/abalg/storetest,
// written once for all four trees, on this store's two.

import (
	"testing"

	"repro/internal/abalg"
	"repro/internal/abalg/storetest"
	"repro/internal/core"
)

var (
	occ, elim = storetest.OCC.Named("OCC"), storetest.Elim.Named("Elim")
	// rqTrees are the two trees under the range-query tests' names.
	rqTrees = []storetest.Kind{storetest.OCC.Named("occ"), storetest.Elim.Named("elim")}
)

// window is this store's publishing-window hook (export_test.go).
func window(pub storetest.Handle, key, val uint64, k abalg.RecKind) func() {
	return core.OpenPublishingWindow(pub.(*core.Thread), key, val, k)
}

func TestAllocsSteadyStatePointOps(t *testing.T) { storetest.AllocsSteadyStatePointOps(t, occ) }
func TestAllocsElimUpdates(t *testing.T)         { storetest.AllocsElimUpdates(t, elim) }
func TestAllocsScanFastPath(t *testing.T)        { storetest.AllocsScanFastPath(t, occ) }
func TestAllocsBatchOps(t *testing.T)            { storetest.AllocsBatchOps(t, occ) }
func TestAllocsWriteUnderScan(t *testing.T)      { storetest.AllocsWriteUnderScan(t, occ) }

// TestAllocsStructuralChurn: the only allocations are the replacement
// nodes themselves, 474 of them, as when the staging buffers were stack
// arrays.
func TestAllocsStructuralChurn(t *testing.T) { storetest.AllocsStructuralChurn(t, occ, 474) }

func TestEmptyTree(t *testing.T)            { storetest.EmptyTree(t, occ, elim) }
func TestInsertFindDelete(t *testing.T)     { storetest.InsertFindDelete(t, occ, elim) }
func TestReservedKeysPanic(t *testing.T)    { storetest.ReservedKeysPanic(t, occ, elim) }
func TestSequentialBulk(t *testing.T)       { storetest.SequentialBulk(t, occ, elim) }
func TestDescendingInserts(t *testing.T)    { storetest.DescendingInserts(t, occ, elim) }
func TestScanOrdered(t *testing.T)          { storetest.ScanOrdered(t, occ, elim) }
func TestModelRandomOps(t *testing.T)       { storetest.ModelRandomOps(t, occ, elim) }
func TestDegreeOptions(t *testing.T)        { storetest.DegreeOptions(t, occ) }
func TestQuickDegreeVariants(t *testing.T)  { storetest.QuickDegreeVariants(t, occ) }
func TestInvalidDegreePanics(t *testing.T)  { storetest.InvalidDegreePanics(t, occ) }
func TestHeightLogarithmic(t *testing.T)    { storetest.HeightLogarithmic(t, occ) }
func TestKeySum(t *testing.T)               { storetest.KeySum(t, occ, elim) }
func TestUpsertBasics(t *testing.T)         { storetest.UpsertBasics(t, occ, elim) }
func TestUpsertModelMixed(t *testing.T)     { storetest.UpsertModelMixed(t, occ, elim) }
func TestUpsertFullLeafSplits(t *testing.T) { storetest.UpsertFullLeafSplits(t, occ, elim) }
func TestRangeBasic(t *testing.T)           { storetest.RangeBasic(t, occ, elim) }
func TestRangeQuick(t *testing.T)           { storetest.RangeQuick(t, occ, elim) }
func TestRangeEarlyStop(t *testing.T)       { storetest.RangeEarlyStop(t, occ, elim) }
func TestQuickOpSequences(t *testing.T)     { storetest.QuickOpSequences(t, occ, elim) }
func TestQuickSetSemantics(t *testing.T)    { storetest.QuickSetSemantics(t, occ) }
func TestQuickInsertDeleteInverse(t *testing.T) {
	storetest.QuickInsertDeleteInverse(t, occ, elim)
}
func FuzzOps(f *testing.F)      { storetest.FuzzOps(f, occ, elim) }
func FuzzBatchOps(f *testing.F) { storetest.FuzzBatchOps(f, occ, elim) }

func TestLockAcquireRelease(t *testing.T)     { storetest.LockAcquireRelease(t, occ, elim) }
func TestLockTryAcquire(t *testing.T)         { storetest.LockTryAcquire(t, occ, elim) }
func TestLockExcludes(t *testing.T)           { storetest.LockExcludes(t, occ, elim) }
func TestLockTryUnderContention(t *testing.T) { storetest.LockTryUnderContention(t, occ, elim) }
func TestConcurrentUniform(t *testing.T)      { storetest.ConcurrentUniform(t, occ, elim) }
func TestConcurrentZipf(t *testing.T)         { storetest.ConcurrentZipf(t, occ, elim) }
func TestConcurrentTinyKeyRange(t *testing.T) { storetest.ConcurrentTinyKeyRange(t, occ, elim) }
func TestConcurrentMixed(t *testing.T)        { storetest.ConcurrentMixed(t, occ, elim) }
func TestConcurrentSingleKey(t *testing.T)    { storetest.ConcurrentSingleKey(t, occ, elim) }
func TestFindDuringHeavyUpdates(t *testing.T) { storetest.FindDuringHeavyUpdates(t, occ, elim) }
func TestRangeUnderConcurrentUpdates(t *testing.T) {
	storetest.RangeUnderConcurrentUpdates(t, occ, elim)
}
func TestUpsertConcurrentLastWriterWins(t *testing.T) {
	storetest.UpsertConcurrentLastWriterWins(t, occ, elim)
}

func TestEliminationObservable(t *testing.T) { storetest.EliminationObservable(t, elim) }
func TestPublishingEliminationDeterministic(t *testing.T) {
	storetest.PublishingEliminationDeterministic(t, elim, window)
}
func TestUpsertEliminationMatrix(t *testing.T) { storetest.UpsertEliminationMatrix(t, elim, window) }
func TestEliminationRequiresOverlap(t *testing.T) {
	storetest.EliminationRequiresOverlap(t, elim.Named("core"))
}

func TestRangeSnapshotSequential(t *testing.T) { storetest.RangeSnapshotSequential(t, rqTrees...) }
func TestRangeSnapshotWriteOrderWitness(t *testing.T) {
	storetest.RangeSnapshotWriteOrderWitness(t, rqTrees...)
}
func TestRangeSnapshotDifferential(t *testing.T) { storetest.RangeSnapshotDifferential(t, rqTrees...) }
func TestDeletesUnderOpenSnapshot(t *testing.T)  { storetest.DeletesUnderOpenSnapshot(t, rqTrees...) }
func TestScanPathCacheDifferential(t *testing.T) { storetest.ScanPathCacheDifferential(t, occ) }
func TestBatchDifferentialSequential(t *testing.T) {
	storetest.BatchDifferentialSequential(t, occ.Named("default"), occ.Degree(2, 4).Named("degree-2-4"), elim.Named("elim"))
}
func TestBatchDifferentialUnderChurn(t *testing.T) { storetest.BatchDifferentialUnderChurn(t, occ) }

// TestNodeLayout checks the slot record encoding (node.go) and its
// round trip through a leaf (storetest.SlotRecord).
func TestNodeLayout(t *testing.T) {
	for i := 0; i < abalg.MaxCap; i++ {
		for _, k := range []abalg.RecKind{abalg.RecInsert, abalg.RecDelete, abalg.RecReplace} {
			w := abalg.PackRec(i, k)
			if w&^abalg.RecMask != 0 {
				t.Errorf("abalg.PackRec(%d, %d) = %#x spills outside abalg.RecMask %#x", i, k, w, abalg.RecMask)
			}
			if gi, gk := abalg.UnpackRec(w | abalg.SizeMask | core.MarkedBit); gi != i || gk != k {
				t.Errorf("abalg.UnpackRec(abalg.PackRec(%d, %d)) = (%d, %d)", i, k, gi, gk)
			}
		}
	}
	if i, _ := abalg.UnpackRec(abalg.SizeMask | core.MarkedBit); i >= 0 {
		t.Errorf("a state word with no record decodes to slot %d", i)
	}
	storetest.SlotRecord(t, core.New(core.WithElimination()).NewThread())
}
