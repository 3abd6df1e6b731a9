package shard

import (
	"sync"
	"testing"

	"repro/internal/dict"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rq"
	"repro/internal/treedict"
	"repro/internal/xrand"
)

// TestRecoverSharded crashes a 4-way persistent partition mid-workload
// (failpoint on one arena; the remaining shards keep absorbing
// operations until the workers drain, then every arena loses its
// unflushed lines) and checks the recovery driver end to end:
//
//   - every shard passes pabtree's structural validation;
//   - every operation that completed before its worker stopped is
//     durable (single-writer key partitioning, as in cmd/abtree-crash),
//     and each worker's one in-flight operation is atomic;
//   - the recovered partition's handles serve cross-shard RangeSnapshot
//     again — the whole point of the driver: RecoverSharded reattaches
//     all shards to one fresh shared clock, where a naive per-shard
//     pabtree.Recover (without re-passing WithRQClock) leaves each
//     shard on a private clock and the capability probe degrades the
//     partition to weak scans (asserted as the negative control).
func TestRecoverSharded(t *testing.T) {
	const (
		shards   = 4
		workers  = 4
		keyRange = uint64(4096)
	)
	arenas := make([]*pmem.Arena, shards)
	for i := range arenas {
		arenas[i] = pmem.New(int(keyRange) * pabtree.NodeWords)
	}
	d, _ := NewPab(keyRange, arenas)

	// Prefill even keys.
	pth := d.NewHandle()
	for k := uint64(2); k <= keyRange; k += 2 {
		pth.Insert(k, k)
	}

	type lastOp struct {
		present bool
		val     uint64
	}
	type inflight struct {
		key, val uint64
		del, on  bool
	}
	completed := make([]map[uint64]lastOp, workers)
	inflights := make([]inflight, workers)

	// Fail one arena at a random interior point; workers catch the
	// simulated power failure and drain.
	rng := xrand.New(97)
	failShard := int(rng.Uint64n(shards))
	arenas[failShard].SetFailpoint(int64(2000 + rng.Uint64n(30000)))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		completed[w] = make(map[uint64]lastOp)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil && r != pmem.ErrCrash {
					panic(r)
				}
			}()
			h := d.NewHandle()
			wrng := xrand.New(1000 + uint64(w))
			for i := 0; i < 1_000_000; i++ {
				// Single-writer key partitioning: worker w owns keys
				// congruent to w mod workers.
				k := wrng.Uint64n(keyRange/uint64(workers))*uint64(workers) + uint64(w)
				if k == 0 {
					continue
				}
				del := wrng.Uint64n(2) == 0
				val := k + uint64(i)<<32
				inflights[w] = inflight{key: k, val: val, del: del, on: true}
				if del {
					h.Delete(k)
					completed[w][k] = lastOp{}
				} else {
					if _, ins := h.Insert(k, val); ins {
						completed[w][k] = lastOp{present: true, val: val}
					}
				}
				inflights[w] = inflight{}
			}
		}(w)
	}
	wg.Wait()
	if !arenas[failShard].FailpointTriggered() {
		t.Fatalf("workload finished before the failpoint fired on shard %d", failShard)
	}

	// Power loss: every arena loses (most of) its unflushed lines. Each
	// completed operation flushed before returning, so it is durable no
	// matter which arena it landed on.
	for i, a := range arenas {
		a.Crash(0.5, uint64(i)*7+3)
	}

	rec, trees := RecoverSharded(keyRange, arenas)
	for i, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("recovered shard %d structurally invalid: %v", i, err)
		}
	}

	th := rec.NewHandle()
	for w := 0; w < workers; w++ {
		inf := inflights[w]
		for k, recOp := range completed[w] {
			if inf.on && inf.key == k {
				continue // the in-flight op may or may not have applied
			}
			v, ok := th.Find(k)
			if ok != recOp.present {
				t.Fatalf("worker %d key %d: present=%v, want %v", w, k, ok, recOp.present)
			}
			if ok && v != recOp.val {
				t.Fatalf("worker %d key %d: val %d, want %d", w, k, v, recOp.val)
			}
		}
	}

	// The recovered partition must serve cross-shard snapshot scans
	// again: RecoverSharded reattached every shard to one fresh clock.
	sr, ok := th.(dict.SnapshotRanger)
	if !ok {
		t.Fatal("recovered partition lost cross-shard RangeSnapshot: shards not reattached to a shared clock")
	}
	var n int
	sr.RangeSnapshot(1, keyRange, func(_, _ uint64) bool { n++; return true })
	if n == 0 {
		t.Fatal("recovered cross-shard snapshot scan saw no keys")
	}
	if got, want := rec.KeySum(), keySumOf(th, keyRange); got != want {
		t.Fatalf("recovered KeySum %d, scan sum %d", got, want)
	}

	// Negative control: recovering each shard without re-passing a
	// shared clock (the manual-recovery mistake the driver exists to
	// prevent) leaves the shards on private clocks, and the capability
	// probe must refuse cross-shard snapshot scans.
	for i, a := range arenas {
		a.Crash(1, uint64(i)) // quiescent: nothing unflushed, state preserved
	}
	naive := New(shards, keyRange, func(i int, _ *rq.Clock) dict.Dict {
		return treedict.Pab{T: pabtree.Recover(arenas[i])}
	})
	if _, ok := naive.NewHandle().(dict.SnapshotRanger); ok {
		t.Fatal("naive per-shard recovery (no shared clock) still claims cross-shard snapshot scans")
	}
	if _, ok := naive.NewHandle().(dict.Ranger); !ok {
		t.Fatal("naive per-shard recovery lost weak Range")
	}
}

func keySumOf(h dict.Handle, keyRange uint64) uint64 {
	var sum uint64
	h.(dict.Ranger).Range(1, keyRange, func(k, _ uint64) bool {
		sum += k
		return true
	})
	return sum
}
