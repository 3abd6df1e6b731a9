package core

// Find elimination — the paper's §4.1 closing remark: "the ElimRecord
// could also be used to linearize finds in high-contention workloads. In
// some extreme scenarios, this could possibly be useful in preventing
// find(key) from being starved by an endless stream of updates to key."
//
// A find whose start version is <= rec.Ver was in progress when the
// record's operation linearized, so it may linearize immediately after
// the publisher: an insert or replace record answers (rec.Val, true), a
// delete record answers (⊥, false). Enabled with WithFindElimination
// (off by default, like the paper, whose leaves are small enough that
// find starvation never materialized in their experiments).

// WithFindElimination lets finds answer from the leaf's elimination
// record when their double-collect scan is interrupted by concurrent
// updates. Requires WithElimination.
func WithFindElimination() Option { return func(t *Tree) { t.elimFinds = true } }

// findElim is the Find path with elimination: one optimistic scan; if it
// is interrupted, try the record before rescanning.
func (th *Thread) findElim(key uint64) (uint64, bool) {
	t := th.t
	n := t.search(key, nil).n
	leaf := n.elim()
	startVer := leaf.ver.Load()
	spins := 0
	for {
		v, found, consistent := t.leafScanOnce(n, key)
		if consistent {
			return v, found
		}
		// Interrupted by a concurrent update: consult the record.
		rec := leaf.record(&spins)
		if startVer <= rec.Ver && rec.Key == key {
			t.elimFindHits.Add(1)
			// Linearize immediately after the publisher.
			if rec.Kind == RecDelete {
				return 0, false
			}
			return rec.Val, true
		}
		spinPause(&spins)
	}
}
