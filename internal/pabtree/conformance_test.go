package pabtree_test

// The store-agnostic tests of the p-OCC- and p-Elim-ABtree: each is a
// one-line wrapper that runs its body from internal/abalg/storetest,
// written once for all four trees, on this store's two. A persistent
// tree's validation there also checks that every durable field is
// persisted (ValidatePersisted).

import (
	"testing"

	"repro/internal/abalg"
	"repro/internal/abalg/storetest"
	"repro/internal/pabtree"
	"repro/internal/pmem"
)

var pOCC, pElim = storetest.POCC.Named("pOCC"), storetest.PElim.Named("pElim")

// window is this store's publishing-window hook (export_test.go).
func window(pub storetest.Handle, key, val uint64, k abalg.RecKind) func() {
	return pabtree.OpenPublishingWindow(pub.(*pabtree.Thread), key, val, k)
}

func TestAllocsSteadyStatePointOps(t *testing.T) { storetest.AllocsSteadyStatePointOps(t, pOCC) }
func TestAllocsElimUpdates(t *testing.T)         { storetest.AllocsElimUpdates(t, pElim) }
func TestAllocsScanFastPath(t *testing.T)        { storetest.AllocsScanFastPath(t, pOCC) }
func TestAllocsBatchOps(t *testing.T)            { storetest.AllocsBatchOps(t, pOCC) }
func TestAllocsWriteUnderScan(t *testing.T)      { storetest.AllocsWriteUnderScan(t, pOCC) }

// TestAllocsStructuralChurn: nodes are arena slots, so once the epoch
// limbo lists have grown the churn allocates nothing (580 per run when
// each rebalance made its buffers).
func TestAllocsStructuralChurn(t *testing.T) { storetest.AllocsStructuralChurn(t, pOCC, 0) }

func TestEmptyTree(t *testing.T)         { storetest.EmptyTree(t, pOCC, pElim) }
func TestInsertFindDelete(t *testing.T)  { storetest.InsertFindDelete(t, pOCC, pElim) }
func TestReservedKeysPanic(t *testing.T) { storetest.ReservedKeysPanic(t, pOCC, pElim) }
func TestSequentialBulkAndPersistence(t *testing.T) {
	storetest.SequentialBulk(t, pOCC, pElim)
}
func TestDescendingInserts(t *testing.T)    { storetest.DescendingInserts(t, pOCC, pElim) }
func TestScanOrdered(t *testing.T)          { storetest.ScanOrdered(t, pOCC, pElim) }
func TestModelRandomOps(t *testing.T)       { storetest.ModelRandomOps(t, pOCC, pElim) }
func TestDegreeOptions(t *testing.T)        { storetest.DegreeOptions(t, pOCC) }
func TestQuickDegreeVariants(t *testing.T)  { storetest.QuickDegreeVariants(t, pOCC) }
func TestInvalidDegreePanics(t *testing.T)  { storetest.InvalidDegreePanics(t, pOCC) }
func TestHeightLogarithmic(t *testing.T)    { storetest.HeightLogarithmic(t, pOCC) }
func TestKeySum(t *testing.T)               { storetest.KeySum(t, pOCC, pElim) }
func TestUpsertPersistent(t *testing.T)     { storetest.UpsertBasics(t, pOCC, pElim) }
func TestUpsertModelMixed(t *testing.T)     { storetest.UpsertModelMixed(t, pOCC, pElim) }
func TestUpsertFullLeafSplits(t *testing.T) { storetest.UpsertFullLeafSplits(t, pOCC, pElim) }
func TestRangePersistent(t *testing.T)      { storetest.RangeBasic(t, pOCC, pElim) }
func TestRangeQuick(t *testing.T)           { storetest.RangeQuick(t, pOCC, pElim) }
func TestRangeEarlyStop(t *testing.T)       { storetest.RangeEarlyStop(t, pOCC, pElim) }
func TestQuickOpSequences(t *testing.T)     { storetest.QuickOpSequences(t, pOCC, pElim) }
func TestQuickSetSemantics(t *testing.T)    { storetest.QuickSetSemantics(t, pOCC) }
func TestQuickInsertDeleteInverse(t *testing.T) {
	storetest.QuickInsertDeleteInverse(t, pOCC, pElim)
}
func FuzzOps(f *testing.F)      { storetest.FuzzOps(f, pOCC, pElim) }
func FuzzBatchOps(f *testing.F) { storetest.FuzzBatchOps(f, pOCC, pElim) }

func TestLockAcquireRelease(t *testing.T)     { storetest.LockAcquireRelease(t, pOCC, pElim) }
func TestLockTryAcquire(t *testing.T)         { storetest.LockTryAcquire(t, pOCC, pElim) }
func TestLockExcludes(t *testing.T)           { storetest.LockExcludes(t, pOCC, pElim) }
func TestLockTryUnderContention(t *testing.T) { storetest.LockTryUnderContention(t, pOCC, pElim) }
func TestConcurrentUniform(t *testing.T)      { storetest.ConcurrentUniform(t, pOCC, pElim) }
func TestConcurrentZipf(t *testing.T)         { storetest.ConcurrentZipf(t, pOCC, pElim) }
func TestConcurrentTinyKeyRange(t *testing.T) { storetest.ConcurrentTinyKeyRange(t, pOCC, pElim) }
func TestConcurrentMixed(t *testing.T)        { storetest.ConcurrentMixed(t, pOCC, pElim) }
func TestConcurrentSingleKey(t *testing.T)    { storetest.ConcurrentSingleKey(t, pOCC, pElim) }
func TestFindDuringHeavyUpdates(t *testing.T) { storetest.FindDuringHeavyUpdates(t, pOCC, pElim) }
func TestRangeUnderConcurrentUpdates(t *testing.T) {
	storetest.RangeUnderConcurrentUpdates(t, pOCC, pElim)
}

func TestUpsertConcurrentLastWriterWins(t *testing.T) {
	storetest.UpsertConcurrentLastWriterWins(t, pOCC, pElim)
}

func TestEliminationObservable(t *testing.T) { storetest.EliminationObservable(t, pElim) }
func TestPublishingEliminationDeterministic(t *testing.T) {
	storetest.PublishingEliminationDeterministic(t, pElim, window)
}
func TestUpsertEliminationMatrix(t *testing.T) { storetest.UpsertEliminationMatrix(t, pElim, window) }
func TestEliminationRequiresOverlap(t *testing.T) {
	storetest.EliminationRequiresOverlap(t, pElim.Named("pabtree"))
}

func TestRangeSnapshotSequential(t *testing.T)   { storetest.RangeSnapshotSequential(t, pOCC, pElim) }
func TestRangeSnapshotWitness(t *testing.T)      { storetest.RangeSnapshotWriteOrderWitness(t, pOCC, pElim) }
func TestRangeSnapshotDifferential(t *testing.T) { storetest.RangeSnapshotDifferential(t, pOCC, pElim) }
func TestDeletesUnderOpenSnapshot(t *testing.T)  { storetest.DeletesUnderOpenSnapshot(t, pOCC, pElim) }
func TestScanPathCacheDifferential(t *testing.T) { storetest.ScanPathCacheDifferential(t, pOCC) }
func TestBatchDifferentialSequential(t *testing.T) {
	storetest.BatchDifferentialSequential(t, pOCC.Named("occ"), pElim.Named("elim"))
}
func TestBatchDifferentialUnderChurn(t *testing.T) { storetest.BatchDifferentialUnderChurn(t, pOCC) }

// TestSlotRecord round-trips the p-Elim-ABtree's slot record through a
// leaf (storetest.SlotRecord): a delete's key comes from delKey because
// its key word holds the durable ⊥.
func TestSlotRecord(t *testing.T) {
	storetest.SlotRecord(t, pabtree.New(pmem.New(64*pabtree.NodeWords), pabtree.WithElimination()).NewThread())
}
