package main

// The -cluster drill: the replicated-partition half of the crash story.
// One partition — a primary and two followers, all in-process — serves
// clients only through fault-injecting proxies (seeded delays, dropped
// connections, mid-frame truncation). A cluster router drives load
// through the chaos, and mid-workload the drill closes the primary
// outright. The router must detect the failure, promote the
// most-caught-up follower, and keep going, with three verdicts:
//
//   - zero acked-write loss: every mutation acked before the kill is
//     still readable after failover (the sync-1 ack policy means an
//     acked write lives on at least one surviving replica);
//   - the chaos histories, with mutations that died ambiguously carried
//     as Maybe ops, pass the linearizability checker across the kill;
//   - the failover is observable: the promoted primary's METRICS report
//     failovers_total, repl_acks_total and the replication latency
//     histograms (repl_ship_ack_ns, repl_commit_wait_ns).
//
// On any failure the drill prints each proxy's faultnet repro string
// and the exact rerun command, so a failing seed replays exactly.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/faultnet"
	"repro/internal/linearizability"
	"repro/internal/server"
)

// clusterMember is one replica: a real server plus the faulted proxy
// the router dials it through.
type clusterMember struct {
	name  string
	srv   *server.Server
	addr  string // the server's real listen address (replication, verification)
	px    *faultnet.Proxy
	pxCfg faultnet.Config
	paddr string // the proxied address the router dials (client traffic)
}

// clusterDrill runs the kill-the-primary drill and verifies promotion,
// acked-write durability, linearizability and observability.
func clusterDrill(seed uint64, workers int, drainTO time.Duration) error {
	const structure = "OCC-ABtree"
	const keyRange = 1 << 16

	var members []*clusterMember
	defer func() {
		for _, m := range members {
			m.px.Close()
			m.srv.Close()
		}
	}()

	// repro renders the failure recipe: the rerun command plus each
	// proxy's deterministic fault schedule.
	repro := func() string {
		s := fmt.Sprintf("repro: go run ./cmd/abtree-crash -cluster -seed %d -workers %d", seed, workers)
		for _, m := range members {
			s += fmt.Sprintf("\n  %s: %s", m.name, m.pxCfg.ReproString())
		}
		return s
	}

	newMember := func(name string, idx uint64, cfg server.Config) (*clusterMember, error) {
		srv, err := server.New(bench.NewDict, structure, keyRange, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		saddr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		pxCfg := faultnet.Config{
			Seed:         seed + idx*101,
			DelayRate:    0.05,
			DelayDur:     200 * time.Microsecond,
			DropRate:     0.01,
			TruncateRate: 0.005,
		}
		px := faultnet.New(saddr.String(), pxCfg)
		paddr, err := px.Start("127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s proxy: %v", name, err)
		}
		m := &clusterMember{name: name, srv: srv, addr: saddr.String(),
			px: px, pxCfg: pxCfg, paddr: paddr.String()}
		members = append(members, m)
		return m, nil
	}

	// Followers first (they only listen), then the primary shipping to
	// their real addresses. The router, by contrast, reaches every member
	// only through its proxy — all client traffic, and any replication
	// stream a post-failover promotion sets up, crosses the chaos.
	f1, err := newMember("follower-1", 1, server.Config{Follower: true})
	if err != nil {
		return err
	}
	f2, err := newMember("follower-2", 2, server.Config{Follower: true})
	if err != nil {
		return err
	}
	prim, err := newMember("primary", 0, server.Config{Followers: []string{f1.addr, f2.addr}})
	if err != nil {
		return err
	}

	// killedAt/promotedAt bracket the failover: the kill stamps the
	// former, the router's "primary is now" event stamps the latter, and
	// the difference is the drill's time-to-failover (detection + STATS
	// re-resolution + PROMOTE, all through faulted links).
	var killedAt, promotedAt atomic.Int64

	// The router dials through the proxies, so even its construction-time
	// STATS exchange can lose the fault lottery — retry a few times.
	var cd *cluster.Dict
	for attempt := 0; ; attempt++ {
		cd, err = cluster.New(cluster.Config{
			Partitions: []cluster.Partition{{Primary: prim.paddr, Followers: []string{f1.paddr, f2.paddr}}},
			KeyRange:   keyRange,
			Client:     client.Config{DialTimeout: 2 * time.Second, RetryAttempts: 16, RetryBackoff: time.Millisecond},
			Logf: func(format string, args ...any) {
				if strings.Contains(fmt.Sprintf(format, args...), "primary is now") &&
					killedAt.Load() != 0 {
					promotedAt.CompareAndSwap(0, time.Now().UnixNano())
				}
			},
		})
		if err == nil {
			break
		}
		if attempt >= 20 {
			return fmt.Errorf("router dial through proxies keeps failing: %v\n%s", err, repro())
		}
	}
	defer cd.Close()

	// Phase 1 — acked writes before the kill. A key counts as acked only
	// when an attempt returns nil; ambiguous deaths are retried (the
	// replay converges on the same state) until the ack arrives.
	const ackedKeys = 200
	h, ok := cd.NewHandle().(client.TryHandle)
	if !ok {
		return errors.New("cluster handle lacks TryHandle")
	}
	for i := 0; i < ackedKeys; i++ {
		k := uint64(1000 + i)
		for {
			if _, _, err := h.TryInsert(k, k*3); err == nil {
				break
			} else if !errors.Is(err, client.ErrAmbiguous) {
				return fmt.Errorf("acked-write phase: key %d: %v\n%s", k, err, repro())
			}
		}
	}
	fmt.Printf("cluster drill: %d writes acked through the faulted router\n", ackedKeys)

	// Phase 2 — chaos load with the primary killed mid-flight. The
	// recorder turns ambiguous mutations into Maybe ops; the checker must
	// accept the whole history across the failover.
	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = uint64(i)*3 + 2
	}
	hist, stats := linearizability.RecordChaos(
		func() linearizability.TryDictHandle {
			return cd.NewHandle().(linearizability.TryDictHandle)
		},
		linearizability.ChaosConfig{
			Workers:   workers,
			OpsPerKey: 8,
			Keys:      keys,
			Seed:      seed * 1_000_003,
			Ambiguous: func(err error) bool { return errors.Is(err, client.ErrAmbiguous) },
			KillAfter: 20,
			Kill: func() {
				killedAt.Store(time.Now().UnixNano())
				prim.srv.Close()
			},
		})
	if err := linearizability.Check(hist, nil); err != nil {
		return fmt.Errorf("history not linearizable across the failover: %v\n%s", err, repro())
	}
	if cd.Failovers() == 0 {
		return fmt.Errorf("primary killed but the router performed no failover\n%s", repro())
	}
	newPrim := cd.PrimaryAddrs()[0]
	if newPrim == prim.paddr {
		return fmt.Errorf("router still points at the killed primary\n%s", repro())
	}
	fmt.Printf("cluster drill: chaos %d ops (%d ambiguous, %d failed), %d failover(s), primary now %s — history linearizable\n",
		stats.Ops, stats.Ambiguous, stats.Failed, cd.Failovers(), newPrim)
	if k, p := killedAt.Load(), promotedAt.Load(); k != 0 && p > k {
		fmt.Printf("cluster drill: time to failover (kill -> promotion adopted): %v\n",
			time.Duration(p-k).Round(time.Millisecond))
	}

	// Verdict 1 — zero acked-write loss: every pre-kill acked key must
	// survive the promotion.
	lost := 0
	for i := 0; i < ackedKeys; i++ {
		k := uint64(1000 + i)
		v, found, err := h.TryFind(k)
		if err != nil {
			return fmt.Errorf("acked-write check: key %d: %v\n%s", k, err, repro())
		}
		if !found || v != k*3 {
			lost++
			fmt.Printf("cluster drill: LOST acked write: key %d (found=%v val=%d)\n", k, found, v)
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d acked writes lost across the failover\n%s", lost, repro())
	}
	fmt.Printf("cluster drill: all %d acked writes survived the primary kill\n", ackedKeys)

	// The promoted primary must be healthy off the faulted path too: a
	// direct fault-free client completes a concurrent burst (and, with
	// sync-1 still in force, every insert below waits for a follower ack
	// shipped over the proxied replication stream the promotion set up).
	var promoted *clusterMember
	for _, m := range members {
		if m.paddr == newPrim {
			promoted = m
		}
	}
	if promoted == nil {
		return fmt.Errorf("promoted primary %s is not a drill member\n%s", newPrim, repro())
	}
	dc, err := client.Dial(promoted.addr)
	if err != nil {
		return fmt.Errorf("direct dial to promoted primary: %v\n%s", err, repro())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bh := dc.NewHandle()
			for i := 0; i < 64; i++ {
				k := uint64(w*64+i) + 30_000
				bh.Insert(k, k)
				bh.Find(k)
			}
		}(w)
	}
	wg.Wait()

	// Verdict 3 — the failover is observable: the promoted primary's own
	// METRICS carry the promotion counter, the acks its new sender has
	// collected, and the replication latency histograms (ship→ack and
	// commit wait; the post-failover burst above must have populated
	// both, since every mutation waited on a sync-1 commit).
	sm, err := dc.ServerMetrics()
	if err != nil {
		dc.Close()
		return fmt.Errorf("METRICS from promoted primary: %v\n%s", err, repro())
	}
	if err := dc.Close(); err != nil {
		return fmt.Errorf("direct client close: %v\n%s", err, repro())
	}
	if sm.Counters["failovers_total"] == 0 {
		return fmt.Errorf("promoted primary reports failovers_total=0\n%s", repro())
	}
	if sm.Counters["repl_acks_total"] == 0 {
		return fmt.Errorf("promoted primary reports repl_acks_total=0 (sync-1 not in force?)\n%s", repro())
	}
	shipAck, okShip := sm.Hists["repl_ship_ack_ns"]
	if !okShip || shipAck.Count == 0 {
		return fmt.Errorf("promoted primary exports no populated repl_ship_ack_ns histogram\n%s", repro())
	}
	commitWait, okCW := sm.Hists["repl_commit_wait_ns"]
	if !okCW || commitWait.Count == 0 {
		return fmt.Errorf("promoted primary exports no populated repl_commit_wait_ns histogram\n%s", repro())
	}
	fmt.Printf("cluster drill: promoted primary metrics: failovers_total=%d repl_acks_total=%d ship_ack_p99=%dns commit_wait_p99=%dns\n",
		sm.Counters["failovers_total"], sm.Counters["repl_acks_total"],
		shipAck.Quantile(0.99), commitWait.Quantile(0.99))
	for _, m := range members {
		fmt.Printf("cluster drill: %s faults injected: %v\n", m.name, m.px.Stats().String())
	}

	// Survivors drain gracefully (the killed primary is already closed).
	ctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	cd.Close()
	for _, m := range members {
		m.px.Close()
		if m == prim {
			continue
		}
		if err := m.srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("%s: graceful drain: %v\n%s", m.name, err, repro())
		}
	}
	fmt.Println("cluster drill: survivors drained — zero acked-write loss, linearizable, observable")
	return nil
}
