// Command abtree-crash exercises the durable trees' crash story end to
// end: it drives a concurrent update workload against a p-OCC-ABtree or
// p-Elim-ABtree, injects a simulated power failure at a random interior
// point of some operation, loses every unflushed cache line (randomly
// "evicting" a fraction of dirty lines, as real caches may), runs the
// paper's recovery procedure, and then checks strict linearizability:
// every operation that completed before the crash must be visible, and
// each worker's single in-flight operation must have either happened
// entirely or not at all.
//
// With -shards N > 1 the same story runs against an N-way range
// partition of persistent trees (internal/shard): the crash hits one
// shard's arena mid-operation, every arena then loses its unflushed
// lines, and shard.RecoverSharded rebuilds the partition — reattaching
// all shards to one fresh shared clock, so cross-shard linearizable
// snapshot scans survive recovery (checked each round).
//
// Usage:
//
//	abtree-crash -rounds 20 -workers 4 -keys 4096 -evict 0.5 -elim
//	abtree-crash -rounds 10 -shards 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/dict"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/xrand"
)

func main() {
	var (
		rounds  = flag.Int("rounds", 10, "crash/recover rounds")
		workers = flag.Int("workers", 4, "concurrent update workers")
		keys    = flag.Uint64("keys", 4096, "key range")
		evict   = flag.Float64("evict", 0.5, "probability an unflushed dirty line persists anyway")
		elim    = flag.Bool("elim", false, "use the p-Elim-ABtree")
		shards  = flag.Int("shards", 1, "range-partition the tree into this many shards (recovery via shard.RecoverSharded)")
		seed    = flag.Uint64("seed", 1, "base seed")

		net       = flag.Bool("net", false, "run the network fault drill instead: server behind a fault-injecting proxy, reconnecting clients, linearizability-checked histories, graceful drain (see netdrill.go)")
		netFaults = flag.Int("net-faults", 40, "with -net: keep running chaos rounds until at least this many faults were injected")
		netDrain  = flag.Duration("net-drain", 10*time.Second, "with -net/-cluster: graceful-drain deadline for the final Shutdown")

		clusterF = flag.Bool("cluster", false, "run the replicated-partition failover drill instead: primary + 2 followers behind fault proxies, kill the primary mid-load, verify promotion, zero acked-write loss, linearizable histories and failover metrics (see clusterdrill.go)")
	)
	flag.Parse()
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "bad -shards %d\n", *shards)
		os.Exit(2)
	}

	if *clusterF {
		if err := clusterDrill(*seed, *workers, *netDrain); err != nil {
			fmt.Fprintf(os.Stderr, "cluster drill: FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *net {
		if err := netDrill(*seed, *workers, *netFaults, *netDrain); err != nil {
			fmt.Fprintf(os.Stderr, "net drill: FAILED: %v\n", err)
			os.Exit(1)
		}
		return
	}

	for r := 0; r < *rounds; r++ {
		var err error
		if *shards > 1 {
			err = shardedRound(uint64(r)+*seed, *workers, *shards, *keys, *evict, *elim)
		} else {
			err = round(uint64(r)+*seed, *workers, *keys, *evict, *elim)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "round %d: FAILED: %v\n", r, err)
			os.Exit(1)
		}
		fmt.Printf("round %2d: crash + recovery consistent\n", r)
	}
	fmt.Println("all rounds passed: every completed op durable, every in-flight op atomic")
}

type lastOp struct {
	present bool
	val     uint64
}

type inflight struct {
	key, val uint64
	del, on  bool
}

// shardedRound is round over an N-way persistent partition: the
// failpoint arms one shard's arena, workers drive the composed
// dictionary until the crash drains them, every arena then crashes, and
// shard.RecoverSharded rebuilds the partition on one fresh shared
// clock.
func shardedRound(seed uint64, workers, shards int, keyRange uint64, evict float64, elim bool) error {
	arenas := make([]*pmem.Arena, shards)
	for i := range arenas {
		arenas[i] = pmem.New(int(keyRange) * 2 * pabtree.NodeWords)
	}
	var opts []pabtree.Option
	if elim {
		opts = append(opts, pabtree.WithElimination())
	}
	d, _ := shard.NewPab(keyRange, arenas, opts...)

	pth := d.NewHandle()
	for k := uint64(1); k <= keyRange/2; k++ {
		pth.Insert(k*2, k)
	}

	completed := make([]map[uint64]lastOp, workers)
	inflights := make([]inflight, workers)
	rng := xrand.New(seed * 31)
	failShard := int(rng.Uint64n(uint64(shards)))
	arenas[failShard].SetFailpoint(int64(1000 + rng.Uint64n(20000)))

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
			drive(h, w, workers, keyRange, seed, completed[w], &inflights[w])
		}(w)
	}
	wg.Wait()
	if !arenas[failShard].FailpointTriggered() {
		return fmt.Errorf("workload finished before the failpoint fired on shard %d; raise -keys or op count", failShard)
	}

	for i, a := range arenas {
		a.Crash(evict, seed*7+uint64(i)+3)
	}
	recovered, trees := shard.RecoverSharded(keyRange, arenas, opts...)
	for i, tr := range trees {
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("recovered shard %d structurally invalid: %w", i, err)
		}
	}

	th := recovered.NewHandle()
	if err := checkDurable(th, completed, inflights); err != nil {
		return err
	}
	// The recovered partition must serve cross-shard linearizable
	// snapshot scans: RecoverSharded reattached all shards to one fresh
	// shared clock.
	sr, ok := th.(dict.SnapshotRanger)
	if !ok {
		return fmt.Errorf("recovered partition lost cross-shard RangeSnapshot (shards not on a shared clock)")
	}
	n := 0
	sr.RangeSnapshot(1, keyRange, func(_, _ uint64) bool { n++; return true })
	if n == 0 {
		return fmt.Errorf("recovered cross-shard snapshot scan saw no keys")
	}
	return nil
}

// drive runs one worker's update stream: single-writer key partitioning
// (worker w owns keys congruent to w mod workers), tracking the last
// completed op per key and the single in-flight op.
func drive(h dict.Handle, w, workers int, keyRange, seed uint64, completed map[uint64]lastOp, inf *inflight) {
	wrng := xrand.New(seed*97 + uint64(w))
	for i := 0; i < 1_000_000; i++ {
		k := wrng.Uint64n(keyRange/uint64(workers))*uint64(workers) + uint64(w)
		if k == 0 {
			continue
		}
		del := wrng.Uint64n(2) == 0
		val := k + uint64(i)<<32
		*inf = inflight{key: k, val: val, del: del, on: true}
		if del {
			h.Delete(k)
			completed[k] = lastOp{}
		} else {
			if _, ins := h.Insert(k, val); ins {
				completed[k] = lastOp{present: true, val: val}
			}
		}
		*inf = inflight{}
	}
}

// checkDurable verifies strict linearizability of the recovered state:
// every completed op visible, each worker's in-flight op atomic.
func checkDurable(th dict.Handle, completed []map[uint64]lastOp, inflights []inflight) error {
	for w := range completed {
		inf := inflights[w]
		for k, rec := range completed[w] {
			if inf.on && inf.key == k {
				continue
			}
			v, ok := th.Find(k)
			if ok != rec.present {
				return fmt.Errorf("worker %d key %d: present=%v, want %v", w, k, ok, rec.present)
			}
			if ok && v != rec.val {
				return fmt.Errorf("worker %d key %d: val %d, want %d", w, k, v, rec.val)
			}
		}
	}
	return nil
}

func round(seed uint64, workers int, keyRange uint64, evict float64, elim bool) error {
	arena := pmem.New(int(keyRange) * 2 * pabtree.NodeWords)
	var opts []pabtree.Option
	if elim {
		opts = append(opts, pabtree.WithElimination())
	}
	tree := pabtree.New(arena, opts...)

	// Prefill half the key space.
	pth := tree.NewThread()
	for k := uint64(1); k <= keyRange/2; k++ {
		pth.Insert(k*2, k)
	}

	completed := make([]map[uint64]lastOp, workers)
	inflights := make([]inflight, workers)

	rng := xrand.New(seed * 31)
	arena.SetFailpoint(int64(1000 + rng.Uint64n(20000)))

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
			drive(tree.NewThread(), w, workers, keyRange, seed, completed[w], &inflights[w])
		}(w)
	}
	wg.Wait()

	if !arena.FailpointTriggered() {
		return fmt.Errorf("workload finished before the failpoint fired; raise -keys or op count")
	}

	arena.Crash(evict, seed*7+3)
	recovered := pabtree.Recover(arena, opts...)
	if err := recovered.Validate(); err != nil {
		return fmt.Errorf("recovered tree structurally invalid: %w", err)
	}
	return checkDurable(recovered.NewThread(), completed, inflights)
}
