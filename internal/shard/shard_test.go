package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/rq"
	"repro/internal/treedict"
	"repro/internal/xrand"
)

// coreDict is the canonical core-tree adapter (internal/treedict).
type coreDict = treedict.Core

// noScanHandle strips the scan methods off a handle, for capability
// tests.
type noScanHandle struct{ h dict.Handle }

func (n noScanHandle) Find(k uint64) (uint64, bool)      { return n.h.Find(k) }
func (n noScanHandle) Insert(k, v uint64) (uint64, bool) { return n.h.Insert(k, v) }
func (n noScanHandle) Delete(k uint64) (uint64, bool)    { return n.h.Delete(k) }

type noScanDict struct{ d dict.Dict }

func (n noScanDict) NewHandle() dict.Handle { return noScanHandle{n.d.NewHandle()} }
func (n noScanDict) KeySum() uint64         { return n.d.KeySum() }

// newCoreShards builds an n-way partition of small-degree OCC trees (so
// leaves split and merge constantly) sharing one rq clock.
func newCoreShards(n int, keyRange uint64) (*Dict, []*core.Tree) {
	trees := make([]*core.Tree, n)
	d := New(n, keyRange, func(i int, c *rq.Clock) dict.Dict {
		trees[i] = core.New(core.WithDegree(2, 4), core.WithRQClock(c))
		return coreDict{T: trees[i]}
	})
	return d, trees
}

func TestShardRouting(t *testing.T) {
	d, _ := newCoreShards(4, 1000)
	if d.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", d.Shards())
	}
	// bounds: 251, 501, 751.
	for _, tc := range []struct {
		key  uint64
		want int
	}{{1, 0}, {250, 0}, {251, 1}, {500, 1}, {501, 2}, {750, 2}, {751, 3}, {1000, 3}, {999999, 3}} {
		if got := d.bounds.Route(tc.key); got != tc.want {
			t.Errorf("route(%d) = %d, want %d", tc.key, got, tc.want)
		}
	}
	for i := 0; i < 4; i++ {
		if lo, hi := d.bounds.Low(i), d.bounds.High(i); d.bounds.Route(lo) != i || d.bounds.Route(hi) != i {
			t.Errorf("shard %d: bounds [%d, %d] do not route home", i, lo, hi)
		}
	}
}

// TestShardCapabilityLattice checks that a partition only offers the
// scan kinds every shard supports.
func TestShardCapabilityLattice(t *testing.T) {
	full, _ := newCoreShards(2, 100)
	if _, ok := full.NewHandle().(dict.SnapshotRanger); !ok {
		t.Fatal("all-ABtree partition should offer RangeSnapshot")
	}
	if _, ok := full.NewHandle().(dict.Ranger); !ok {
		t.Fatal("all-ABtree partition should offer Range")
	}
	// One shard without scan support strips both capabilities from the
	// composed handle.
	mixed := New(2, 100, func(i int, c *rq.Clock) dict.Dict {
		base := coreDict{T: core.New(core.WithRQClock(c))}
		if i == 1 {
			return noScanDict{base}
		}
		return base
	})
	if _, ok := mixed.NewHandle().(dict.Ranger); ok {
		t.Fatal("partition with a scanless shard must not offer Range")
	}
	if _, ok := mixed.NewHandle().(dict.SnapshotRanger); ok {
		t.Fatal("partition with a scanless shard must not offer RangeSnapshot")
	}
	// A snapshot-capable shard whose builder ignored the shared clock
	// would serve torn scans against its private counter: the coupling
	// check must degrade the partition to weak Range.
	uncoupled := New(2, 100, func(i int, _ *rq.Clock) dict.Dict {
		return coreDict{T: core.New()} // private clock: NOT the partition's
	})
	if _, ok := uncoupled.NewHandle().(dict.SnapshotRanger); ok {
		t.Fatal("partition with a clock-uncoupled shard must not offer RangeSnapshot")
	}
	if _, ok := uncoupled.NewHandle().(dict.Ranger); !ok {
		t.Fatal("clock-uncoupled partition should still offer weak Range")
	}
	// A nested partition always owns a private clock, so it too must
	// degrade to weak Range rather than claim cross-partition atomicity.
	nested := New(2, 100, func(i int, _ *rq.Clock) dict.Dict {
		return New(2, 50, func(_ int, inner *rq.Clock) dict.Dict {
			return coreDict{T: core.New(core.WithRQClock(inner))}
		})
	})
	if _, ok := nested.NewHandle().(dict.SnapshotRanger); ok {
		t.Fatal("nested partitions must not offer RangeSnapshot across the outer partition")
	}
	if _, ok := nested.NewHandle().(dict.Ranger); !ok {
		t.Fatal("nested partition should still offer weak Range")
	}
}

// TestShardPointOpsAndMergedStats smoke-tests routing, KeySum merging
// and the merged stats interfaces on a quiescent partition.
func TestShardPointOpsAndMergedStats(t *testing.T) {
	d, trees := newCoreShards(4, 1000)
	h := d.NewHandle()
	var want uint64
	for k := uint64(1); k <= 1000; k += 3 {
		if _, ok := h.Insert(k, k*2); !ok {
			t.Fatalf("fresh insert of %d reported duplicate", k)
		}
		want += k
	}
	if got := d.KeySum(); got != want {
		t.Fatalf("KeySum = %d, want %d", got, want)
	}
	if v, ok := h.Find(505); !ok || v != 1010 {
		t.Fatalf("Find(505) = (%d, %v), want (1010, true)", v, ok)
	}
	if _, ok := h.Find(506); ok {
		t.Fatal("Find(506) found a never-inserted key")
	}
	if v, ok := h.Delete(505); !ok || v != 1010 {
		t.Fatalf("Delete(505) = (%d, %v)", v, ok)
	}
	want -= 505
	if got := d.KeySum(); got != want {
		t.Fatalf("KeySum after delete = %d, want %d", got, want)
	}

	// Every shard must actually hold its slice (routing is not all
	// funneling into one tree).
	for i, tr := range trees {
		if tr.Len() == 0 {
			t.Fatalf("shard %d is empty: routing never reached it", i)
		}
	}

	// A cross-shard scan counts once in the merged stats.
	sh := d.NewHandle().(dict.SnapshotRanger)
	sh.RangeSnapshot(1, 1000, func(_, _ uint64) bool { return true })
	scans, _ := d.RQStats()
	if scans != 1 {
		t.Fatalf("merged RQStats scans = %d, want 1 (one cross-shard scan)", scans)
	}
}

// TestShardRangeConcatenation checks the weak cross-shard Range:
// ascending order across boundaries, interval clipping, early stop.
func TestShardRangeConcatenation(t *testing.T) {
	d, _ := newCoreShards(8, 800)
	h := d.NewHandle()
	for k := uint64(1); k <= 900; k++ { // past keyRange: last shard absorbs
		h.Insert(k, k+7)
	}
	r := h.(dict.Ranger)
	var got []uint64
	r.Range(45, 860, func(k, v uint64) bool {
		if v != k+7 {
			t.Fatalf("key %d carries value %d, want %d", k, v, k+7)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 816 {
		t.Fatalf("Range saw %d keys, want 816", len(got))
	}
	for i, k := range got {
		if k != 45+uint64(i) {
			t.Fatalf("position %d: key %d, want %d (cross-boundary order broken)", i, k, 45+uint64(i))
		}
	}
	// Early stop must not resume in a later shard.
	n := 0
	r.Range(1, 900, func(_, _ uint64) bool { n++; return n < 250 })
	if n != 250 {
		t.Fatalf("early-stopped Range visited %d keys, want 250", n)
	}
}

// TestShardDifferentialChurn drives concurrent point operations through
// a sharded dictionary and a striped mutex-guarded model map at once:
// each key's stripe lock makes the dict-op/model-op pair atomic per key
// while different keys churn in parallel, splitting and merging the
// degree-(2,4) leaves within shards and hammering both sides of every
// shard boundary. Any routing or composition bug surfaces as a
// divergence from the model.
func TestShardDifferentialChurn(t *testing.T) {
	const (
		shards   = 4
		keyRange = 512 // 128 keys/shard at degree (2,4): constant SMOs
		stripes  = 64
		workers  = 4
	)
	d, trees := newCoreShards(shards, keyRange)

	var mu [stripes]sync.Mutex
	model := make([]map[uint64]uint64, stripes)
	for i := range model {
		model[i] = make(map[uint64]uint64)
	}

	ops := 60000
	if testing.Short() {
		ops = 15000
	}
	var wg sync.WaitGroup
	var firstErr atomic.Pointer[string]
	fail := func(msg string) { firstErr.CompareAndSwap(nil, &msg) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.NewHandle()
			rng := xrand.New(uint64(w)*2654435761 + 17)
			for i := 0; i < ops && firstErr.Load() == nil; i++ {
				// Bias keys toward the shard boundaries so cross-boundary
				// routing is exercised constantly.
				var k uint64
				if rng.Uint64n(4) == 0 {
					b := 1 + (keyRange/shards)*(1+rng.Uint64n(shards-1))
					k = b - 2 + rng.Uint64n(4) // straddles a boundary
				} else {
					k = 1 + rng.Uint64n(keyRange)
				}
				s := k % stripes
				v := 1 + rng.Uint64n(1<<30)
				mu[s].Lock()
				mv, present := model[s][k]
				switch rng.Uint64n(3) {
				case 0:
					old, inserted := h.Insert(k, v)
					if inserted == present || (present && old != mv) {
						fail("Insert diverged from model")
					}
					if !present {
						model[s][k] = v
					}
				case 1:
					old, deleted := h.Delete(k)
					if deleted != present || (present && old != mv) {
						fail("Delete diverged from model")
					}
					delete(model[s], k)
				case 2:
					got, ok := h.Find(k)
					if ok != present || (present && got != mv) {
						fail("Find diverged from model")
					}
				}
				mu[s].Unlock()
			}
		}(w)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		t.Fatal(*e)
	}

	// Quiescent cross-checks: per-key contents, KeySum, and the weak
	// Range agree with the model; every shard obeys its invariants.
	var want uint64
	total := 0
	h := d.NewHandle()
	for s := range model {
		for k, v := range model[s] {
			want += k
			total++
			if got, ok := h.Find(k); !ok || got != v {
				t.Fatalf("key %d: dict has (%d,%v), model %d", k, got, ok, v)
			}
		}
	}
	if got := d.KeySum(); got != want {
		t.Fatalf("KeySum = %d, model %d", got, want)
	}
	seen := 0
	h.(dict.Ranger).Range(1, keyRange+16, func(k, v uint64) bool {
		s := k % stripes
		if mv, ok := model[s][k]; !ok || mv != v {
			t.Fatalf("Range reported (%d,%d), model (%d,%v)", k, v, mv, ok)
		}
		seen++
		return true
	})
	if seen != total {
		t.Fatalf("Range saw %d keys, model holds %d", seen, total)
	}
	for i, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
}

// TestShardCrossShardWriteOrderWitness proves both halves of the
// shared-clock claim. One writer sweeps witness keys spanning every
// shard in ascending order, writing round number g to each (with chaff
// churn forcing splits and merges through the witness leaves). Any
// atomic snapshot of the witness keys reads as a round-g prefix
// followed by a round-(g-1) suffix.
//
//   - The shared-clock cross-shard RangeSnapshot must always produce
//     such a pattern (it is one atomic snapshot of the whole key
//     space).
//   - The torn variant — per-shard snapshot scans, each drawing its own
//     timestamp, concatenated in shard order, exactly what a sharded
//     layer WITHOUT a shared clock would do — must be caught by the
//     witness: a later shard read at a later timestamp shows a round
//     newer than an earlier shard's suffix, an ascending step no atomic
//     snapshot can contain.
func TestShardCrossShardWriteOrderWitness(t *testing.T) {
	const (
		shards = 4
		m      = 96 // witness keys 1, 3, ..., 2m-1 span all 4 shards
	)
	d, trees := newCoreShards(shards, 2*m)
	init := d.NewHandle()
	for i := 0; i < m; i++ {
		init.Insert(uint64(2*i+1), 0)
	}

	// Writer: ascending sweep, round g, via per-shard threads (Upsert
	// is not part of dict.Handle).
	ths := make([]*core.Thread, shards)
	for i, tr := range trees {
		ths[i] = tr.NewThread()
	}
	var stop atomic.Bool
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		chaff := false
		for g := uint64(1); !stop.Load(); g++ {
			for i := 0; i < m; i++ {
				k := uint64(2*i + 1)
				th := ths[d.bounds.Route(k)]
				th.Upsert(k, g)
				if i%3 == 0 {
					ck := uint64(2*i + 2)
					cth := ths[d.bounds.Route(ck)]
					if chaff {
						cth.Insert(ck, ck)
					} else {
						cth.Delete(ck)
					}
				}
			}
			chaff = !chaff
		}
	}()

	collect := func(scan func(lo, hi uint64, fn func(k, v uint64) bool)) []uint64 {
		var vals []uint64
		scan(1, 2*m, func(k, v uint64) bool {
			if k%2 == 1 {
				vals = append(vals, v)
			}
			return true
		})
		return vals
	}
	// torn reports whether vals could NOT have come from one atomic
	// snapshot of the ascending-sweep writer: an ascending step, or a
	// round spread wider than one.
	torn := func(vals []uint64) bool {
		if len(vals) != m {
			return true
		}
		for i := 1; i < m; i++ {
			if vals[i] > vals[i-1] {
				return true
			}
		}
		return vals[0]-vals[m-1] > 1
	}

	rounds := 400
	if testing.Short() {
		rounds = 100
	}

	// Half 1: the shared-clock scan never tears.
	sh := d.NewHandle().(dict.SnapshotRanger)
	for n := 0; n < rounds; n++ {
		if vals := collect(sh.RangeSnapshot); torn(vals) {
			stop.Store(true)
			writer.Wait()
			t.Fatalf("shared-clock cross-shard snapshot %d torn: %v", n, vals)
		}
	}

	// Half 2: the witness catches per-shard (non-shared-timestamp)
	// snapshots tearing. Each shard's scan is individually atomic and
	// individually linearizable — the tear is purely a cross-shard
	// artifact of drawing per-shard timestamps at different moments.
	perShard := make([]dict.SnapshotRanger, shards)
	for i, sd := range d.shards {
		perShard[i] = sd.NewHandle().(dict.SnapshotRanger)
	}
	tornScan := func(lo, hi uint64, fn func(k, v uint64) bool) {
		for i := range perShard {
			sublo, subhi := max(lo, d.bounds.Low(i)), min(hi, d.bounds.High(i))
			if sublo > subhi {
				continue
			}
			perShard[i].RangeSnapshot(sublo, subhi, fn)
			runtime.Gosched() // give the writer a moment between shards
		}
	}
	tears := 0
	for n := 0; n < 10*rounds && tears == 0; n++ {
		if torn(collect(tornScan)) {
			tears++
		}
	}
	stop.Store(true)
	writer.Wait()
	if tears == 0 {
		t.Fatal("per-shard snapshot concatenation never tore: the witness has no teeth")
	}
}
