package rq

import "testing"

// TestPruneRecyclesIntoPool checks the pool round trip: entries a prune
// cuts loose come back out of Acquire, node and Items buffer both.
func TestPruneRecyclesIntoPool(t *testing.T) {
	p := NewProvider()
	var chain *Version
	chain = p.Push(chain, 0, pairs(1), 0)
	chain = p.Push(chain, 3, pairs(1, 2), 0)
	old := chain.Next() // the stamp-0 entry, about to be pruned
	// minActive 4: the stamp-3 entry survives (it serves t=4), stamp-0 is
	// cut and recycled.
	chain = p.Push(chain, 5, pairs(1, 2, 3), 4)
	if got := stamps(chain); !eqU64(got, []uint64{5, 3}) {
		t.Fatalf("pruned chain stamps %v", got)
	}
	if got := p.Recycled(); got != 1 {
		t.Fatalf("recycled count %d, want 1", got)
	}
	if got := p.Pooled(); got != 1 {
		t.Fatalf("pool size %d, want 1", got)
	}
	v := p.Acquire()
	if v != old {
		t.Fatal("Acquire did not reissue the pruned node")
	}
	if v.Stamp != 0 || v.Next() != nil || len(v.Items) != 0 {
		t.Fatalf("reissued node not reset: stamp=%d next=%v items=%v", v.Stamp, v.Next(), v.Items)
	}
	if cap(v.Items) == 0 {
		t.Fatal("reissued node lost its Items backing array")
	}
	if p.Pooled() != 0 {
		t.Fatal("pool not drained by Acquire")
	}
	// An empty pool falls back to allocation.
	if w := p.Acquire(); w == nil || w == v {
		t.Fatal("Acquire on an empty pool must hand out a fresh node")
	}
}

// TestPruneRecyclesWholeTail checks a multi-entry cut: every entry past
// the minActive survivor returns to the pool in one prune.
func TestPruneRecyclesWholeTail(t *testing.T) {
	p := NewProvider()
	var chain *Version
	for s := uint64(0); s < 5; s++ {
		chain = p.Push(chain, s, pairs(s+1), 0)
	}
	// minActive 10: only the newest entry (stamp 4) survives.
	chain = p.Push(chain, 9, pairs(1), 10)
	if got := stamps(chain); !eqU64(got, []uint64{9}) {
		t.Fatalf("chain stamps %v, want just the head", got)
	}
	if got := p.Recycled(); got != 5 {
		t.Fatalf("recycled %d entries, want 5", got)
	}
}

// TestPushAcquiredRoundTrip drives the pooled writer path end to end:
// Acquire, fill, PushAcquired, prune, reuse — zero garbage in steady
// state.
func TestPushAcquiredRoundTrip(t *testing.T) {
	p := NewProvider()
	var chain *Version
	for s := uint64(1); s <= 100; s++ {
		v := p.Acquire()
		v.Items = append(v.Items, Pair{K: s, V: s})
		// minActive s: only the newest pre-push entry survives each round.
		chain = p.PushAcquired(chain, s, v, s)
	}
	if got := stamps(chain); !eqU64(got, []uint64{100, 99}) {
		t.Fatalf("steady-state chain stamps %v", got)
	}
	if got := p.Recycled(); got != 98 {
		t.Fatalf("recycled %d, want 98", got)
	}
	if _, versions := p.Stats(); versions != 100 {
		t.Fatalf("version count %d, want 100", versions)
	}
}
