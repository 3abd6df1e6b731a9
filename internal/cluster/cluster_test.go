package cluster_test

// End-to-end cluster tests: real primary/follower servers on loopback
// ports behind the router — routing, read-your-writes through
// followers, kill-the-primary failover with zero acked-write loss,
// mid-mutation ambiguity, linearizability under a mid-load crash, and
// differential faulted-vs-clean reads through faultnet proxies.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/faultnet"
	"repro/internal/linearizability"
	"repro/internal/server"
	"repro/internal/treedict"
)

func build(name string, keyRange uint64) dict.Dict {
	return treedict.Core{T: core.New()}
}

// member is one replica: its server and bound address.
type member struct {
	srv  *server.Server
	addr string
}

// startPartition spins up nFollowers followers plus one primary
// shipping to them, all hosting keyRange.
func startPartition(t *testing.T, keyRange uint64, nFollowers int, part uint64) (prim member, fols []member) {
	t.Helper()
	var faddrs []string
	for i := 0; i < nFollowers; i++ {
		f, err := server.New(build, "occ", keyRange, server.Config{Follower: true, Partition: part})
		if err != nil {
			t.Fatal(err)
		}
		fa, err := f.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		fols = append(fols, member{f, fa.String()})
		faddrs = append(faddrs, fa.String())
	}
	p, err := server.New(build, "occ", keyRange, server.Config{Followers: faddrs, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return member{p, pa.String()}, fols
}

// fastClient is the drill-grade retry policy: fail fast against dead
// members so failover latency stays test-sized.
var fastClient = client.Config{
	DialTimeout:   2 * time.Second,
	RetryAttempts: 3,
	RetryBackoff:  time.Millisecond,
}

// TestClusterRoutingAndReadYourWrites: two partitions, each primary +
// one follower; every write routed through the router is immediately
// visible to its own reader (the fence), follower GETs actually serve
// some of the traffic, and KeySum aggregates the partitions.
func TestClusterRoutingAndReadYourWrites(t *testing.T) {
	const keyRange = 1 << 10
	p0, f0 := startPartition(t, keyRange, 1, 0)
	p1, f1 := startPartition(t, keyRange, 1, 1)
	d, err := cluster.New(cluster.Config{
		Partitions: []cluster.Partition{
			{Primary: p0.addr, Followers: []string{f0[0].addr}},
			{Primary: p1.addr, Followers: []string{f1[0].addr}},
		},
		KeyRange:      keyRange,
		Client:        fastClient,
		ReadFollowers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	h := d.NewHandle().(client.TryHandle)
	var want uint64
	for k := uint64(1); k <= keyRange; k += 7 {
		if _, _, err := h.TryInsert(k, k*3); err != nil {
			t.Fatalf("TryInsert(%d): %v", k, err)
		}
		want += k
		// Read-your-writes: the write must be visible right now, even
		// when the read is served by a possibly lagging follower.
		v, ok, err := h.TryFind(k)
		if err != nil || !ok || v != k*3 {
			t.Fatalf("read-your-writes broken at key %d: %d,%v,%v", k, v, ok, err)
		}
	}
	if got := d.KeySum(); got != want {
		t.Fatalf("cluster KeySum = %d, want %d", got, want)
	}
	// Both partitions hold a share (routing actually split the keys)...
	for i, m := range []member{p0, p1} {
		if m.srv.MetricsDump().Histograms["op_put_ns"].Count == 0 {
			t.Fatalf("partition %d primary served no puts — routing is broken", i)
		}
	}
	// ...and followers served some of the fenced reads.
	folGets := f0[0].srv.MetricsDump().Histograms["op_get_ns"].Count +
		f1[0].srv.MetricsDump().Histograms["op_get_ns"].Count
	if folGets == 0 {
		t.Fatal("no GET was served by a follower despite ReadFollowers")
	}
}

// TestClusterFailover: kill the primary of a 3-member partition after a
// batch of acked writes; the router promotes the most-caught-up
// follower and every acked write is still readable — zero acked-write
// loss — and new writes commit through the surviving follower.
func TestClusterFailover(t *testing.T) {
	const keyRange = 1 << 10
	prim, fols := startPartition(t, keyRange, 2, 0)
	d, err := cluster.New(cluster.Config{
		Partitions: []cluster.Partition{
			{Primary: prim.addr, Followers: []string{fols[0].addr, fols[1].addr}},
		},
		KeyRange: keyRange,
		Client:   fastClient,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	h := d.NewHandle().(client.TryHandle)
	for k := uint64(1); k <= 100; k++ {
		if _, _, err := h.TryInsert(k, k+1000); err != nil {
			t.Fatalf("pre-kill TryInsert(%d): %v", k, err)
		}
	}
	prim.srv.Close() // crash the primary

	// Post-kill writes go through. The first ones may surface
	// ErrAmbiguous — their frames were written into a connection the
	// crash had already doomed — which the drill absorbs by re-issuing:
	// inserting <k, v> again converges on the same state either way.
	for k := uint64(101); k <= 120; k++ {
		for {
			_, _, err := h.TryInsert(k, k+1000)
			if err == nil {
				break
			}
			if !errors.Is(err, client.ErrAmbiguous) {
				t.Fatalf("post-kill TryInsert(%d): %v", k, err)
			}
		}
	}
	if d.Failovers() == 0 {
		t.Fatal("router reports no failover after the primary died")
	}
	if addr := d.PrimaryAddrs()[0]; addr == prim.addr {
		t.Fatalf("router still points at the dead primary %s", addr)
	}
	// Zero acked-write loss: every pre-kill write survives.
	for k := uint64(1); k <= 120; k++ {
		v, ok, err := h.TryFind(k)
		if err != nil || !ok || v != k+1000 {
			t.Fatalf("acked write lost after failover: Find(%d) = %d,%v,%v", k, v, ok, err)
		}
	}
	// The promoted server itself counted the failover.
	var promoted uint64
	for _, f := range fols {
		promoted += f.srv.MetricsDump().Counters["failovers_total"]
	}
	if promoted != 1 {
		t.Fatalf("followers report %d promotions, want exactly 1", promoted)
	}
}

// TestClusterAmbiguousMidMutation: the primary dies while a mutation is
// parked in its commit wait (its only follower is already gone, so the
// ack can never arrive) — the router must surface ErrAmbiguous, not a
// definite answer and not a retry storm.
func TestClusterAmbiguousMidMutation(t *testing.T) {
	const keyRange = 1 << 10
	prim, fols := startPartition(t, keyRange, 1, 0)
	d, err := cluster.New(cluster.Config{
		Partitions: []cluster.Partition{
			{Primary: prim.addr, Followers: []string{fols[0].addr}},
		},
		KeyRange: keyRange,
		Client:   fastClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	h := d.NewHandle().(client.TryHandle)
	if _, _, err := h.TryInsert(1, 10); err != nil {
		t.Fatalf("healthy TryInsert: %v", err)
	}
	fols[0].srv.Close() // acks stop: the next mutation parks uncommitted
	go func() {
		time.Sleep(150 * time.Millisecond)
		prim.srv.Close() // ...and the primary dies holding it
	}()
	_, _, err = h.TryInsert(2, 20)
	if !errors.Is(err, client.ErrAmbiguous) {
		t.Fatalf("mid-mutation primary death returned %v, want ErrAmbiguous", err)
	}
}

// TestClusterFailoverLinearizable: chaos-record through the router
// while the primary of a 3-member partition is killed mid-load; the
// history — ambiguous mutations carried as Maybe ops — must check, and
// the router must have failed over. RecordChaos fires the kill on its
// own goroutine, so every recorded op may finish before the primary
// closes: the test waits for the kill and drives one probe op through
// the router before asserting the failover.
func TestClusterFailoverLinearizable(t *testing.T) {
	const keyRange = 1 << 10
	prim, fols := startPartition(t, keyRange, 2, 0)
	d, err := cluster.New(cluster.Config{
		Partitions: []cluster.Partition{
			{Primary: prim.addr, Followers: []string{fols[0].addr, fols[1].addr}},
		},
		KeyRange: keyRange,
		Client:   fastClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	killed := make(chan struct{})
	hist, stats := linearizability.RecordChaos(
		func() linearizability.TryDictHandle {
			return d.NewHandle().(linearizability.TryDictHandle)
		},
		linearizability.ChaosConfig{
			Workers:   4,
			OpsPerKey: 8,
			Keys:      []uint64{3, 101, 257, 400, 512, 777, 900, 1001},
			Seed:      42,
			Ambiguous: func(err error) bool { return errors.Is(err, client.ErrAmbiguous) },
			KillAfter: 20,
			Kill: func() {
				prim.srv.Close()
				close(killed)
			},
		})
	if err := linearizability.Check(hist, nil); err != nil {
		t.Fatalf("post-failover history not linearizable: %v", err)
	}
	if stats.Ops == 0 {
		t.Fatal("recorded no completed operations")
	}
	select {
	case <-killed:
	case <-time.After(10 * time.Second):
		t.Fatal("the primary never closed")
	}
	// A read reaching the dead primary fails over and retries.
	if _, _, err := d.NewHandle().(client.TryHandle).TryFind(3); err != nil {
		t.Fatalf("probe through the router after the kill: %v", err)
	}
	if d.Failovers() == 0 {
		t.Fatal("the kill fired but the router never failed over")
	}
	t.Logf("ops=%d ambiguous=%d failed=%d failovers=%d",
		stats.Ops, stats.Ambiguous, stats.Failed, d.Failovers())
}

// TestClusterDifferentialFaultedReads: run chaos writes through a
// router whose every member connection crosses a fault-injecting proxy,
// quiesce, then compare GETs key by key between the faulted router and
// a clean router on the same servers — they must agree exactly.
func TestClusterDifferentialFaultedReads(t *testing.T) {
	const keyRange = 1 << 10
	prim, fols := startPartition(t, keyRange, 1, 0)

	// One proxy per member; server-side replication stays direct.
	netcfg := faultnet.Config{
		Seed:         99,
		DelayRate:    0.05,
		DelayDur:     100 * time.Microsecond,
		DropRate:     0.02,
		TruncateRate: 0.01,
	}
	proxy := func(backend string) string {
		px := faultnet.New(backend, netcfg)
		pa, err := px.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		return pa.String()
	}
	faultedCfg := cluster.Config{
		Partitions: []cluster.Partition{
			{Primary: proxy(prim.addr), Followers: []string{proxy(fols[0].addr)}},
		},
		KeyRange:      keyRange,
		Client:        client.Config{RetryAttempts: 16},
		ReadFollowers: true,
	}
	var faulted *cluster.Dict
	var err error
	for try := 0; ; try++ {
		if faulted, err = cluster.New(faultedCfg); err == nil {
			break
		}
		if try > 20 {
			t.Fatalf("faulted router never dialed: %v (repro: %s)", err, netcfg.ReproString())
		}
	}
	t.Cleanup(func() { faulted.Close() })
	clean, err := cluster.New(cluster.Config{
		Partitions: []cluster.Partition{
			{Primary: prim.addr, Followers: []string{fols[0].addr}},
		},
		KeyRange: keyRange,
		Client:   fastClient,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clean.Close() })

	// Chaos writes through the faults; ambiguity is fine (the servers,
	// not the history, are the oracle here).
	keys := []uint64{2, 77, 300, 313, 500, 640, 801, 1000}
	linearizability.RecordChaos(
		func() linearizability.TryDictHandle {
			return faulted.NewHandle().(linearizability.TryDictHandle)
		},
		linearizability.ChaosConfig{
			Workers:   4,
			OpsPerKey: 10,
			Keys:      keys,
			Seed:      7,
			Ambiguous: func(err error) bool { return errors.Is(err, client.ErrAmbiguous) },
		})

	// Quiesced: every key must read identically through faults and not.
	fh := faulted.NewHandle().(client.TryHandle)
	ch := clean.NewHandle().(client.TryHandle)
	for _, k := range keys {
		cv, cok, err := ch.TryFind(k)
		if err != nil {
			t.Fatalf("clean TryFind(%d): %v", k, err)
		}
		var fv uint64
		var fok bool
		for try := 0; ; try++ {
			fv, fok, err = fh.TryFind(k)
			if err == nil {
				break
			}
			if try > 50 {
				t.Fatalf("faulted TryFind(%d) never succeeded: %v (repro: %s)",
					k, err, netcfg.ReproString())
			}
		}
		if fv != cv || fok != cok {
			t.Fatalf("differential mismatch at key %d: faulted %d,%v vs clean %d,%v (repro: %s)",
				k, fv, fok, cv, cok, netcfg.ReproString())
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
