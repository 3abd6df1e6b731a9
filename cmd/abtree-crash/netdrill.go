package main

// The -net drill: the network half of the crash story. Instead of
// cutting power mid-operation, it cuts the wire — an in-process server
// is put behind a faultnet proxy injecting seeded delays, connection
// drops and mid-frame truncations, and chaos workers drive point
// operations through internal/client's reconnect/retry machinery. Every
// round's history must pass the linearizability checker, with mutations
// that died ambiguously carried as Maybe ops (the network analogue of
// the crash drill's single in-flight operation: it either happened or
// it didn't, and the checker accepts both). The drill then proves the
// server survived the abuse — a fault-free client completes a burst of
// operations — and finishes with a graceful Shutdown drain.
//
// Corruption faults are deliberately absent: the wire protocol carries
// no checksums, so a flipped payload byte is silently wrong data. The
// drill injects only faults the client is contracted to survive.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/linearizability"
	"repro/internal/server"
)

// netDrill runs chaos rounds until the proxy has injected at least
// minFaults faults, then verifies the server still serves and drains it.
func netDrill(seed uint64, workers, minFaults int, drainTO time.Duration) error {
	const structure = "OCC-ABtree"
	const keyRange = 1 << 16

	srv, err := server.New(bench.NewDict, structure, keyRange, server.Config{
		MaxConns:    8 * (workers + 2),
		IdleTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	saddr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}

	pxCfg := faultnet.Config{
		Seed:         seed,
		DelayRate:    0.05,
		DelayDur:     200 * time.Microsecond,
		DropRate:     0.02,
		TruncateRate: 0.01,
	}
	px := faultnet.New(saddr.String(), pxCfg)
	paddr, err := px.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer px.Close()

	// Every verdict failure logs this recipe: the schedule is fully
	// deterministic given these values, so the run replays exactly.
	repro := func() string {
		return fmt.Sprintf("repro: go run ./cmd/abtree-crash -net -seed %d -workers %d -net-faults %d\n  %s",
			seed, workers, minFaults, pxCfg.ReproString())
	}

	keys := make([]uint64, 8)
	for i := range keys {
		keys[i] = uint64(i)*3 + 2 // inside the key domain, clear of the sentinels
	}
	ambiguous := func(err error) bool { return errors.Is(err, client.ErrAmbiguous) }

	var total linearizability.ChaosStats
	var faults client.FaultStats
	rounds, dialErrs := 0, 0
	for px.Stats().Total() < uint64(minFaults) {
		if rounds >= 400 {
			return fmt.Errorf("injected only %d/%d faults after %d rounds; raise the fault rates",
				px.Stats().Total(), minFaults, rounds)
		}
		rounds++
		c, err := client.DialConfig(paddr.String(), client.Config{RetryAttempts: 16})
		if err != nil {
			// The dial-time STATS exchange lost the retry lottery; the next
			// round redials from scratch.
			if dialErrs++; dialErrs > 50 {
				return fmt.Errorf("round %d: dial through proxy keeps failing: %v", rounds, err)
			}
			continue
		}
		// Fresh structure per round so each history starts from the empty
		// state the checker assumes.
		if err := c.Open(structure, keyRange); err != nil {
			c.Close()
			return fmt.Errorf("round %d: OPEN: %v\n%s", rounds, err, repro())
		}
		hist, stats := linearizability.RecordChaos(
			func() linearizability.TryDictHandle {
				return c.NewHandle().(linearizability.TryDictHandle)
			},
			linearizability.ChaosConfig{
				Workers:   workers,
				OpsPerKey: 6,
				Keys:      keys,
				Seed:      seed + uint64(rounds)*1_000_003,
				Ambiguous: ambiguous,
			})
		if err := linearizability.Check(hist, nil); err != nil {
			c.Close()
			return fmt.Errorf("round %d: history not linearizable under faults: %v\n%s", rounds, err, repro())
		}
		fs := c.FaultStats()
		faults.Redials += fs.Redials
		faults.Retries += fs.Retries
		faults.Ambiguous += fs.Ambiguous
		faults.Busy += fs.Busy
		total.Ops += stats.Ops
		total.Ambiguous += stats.Ambiguous
		total.Failed += stats.Failed
		c.Close()
	}
	fmt.Printf("net drill: %d rounds, %d ops (%d ambiguous, %d failed) — all histories linearizable\n",
		rounds, total.Ops, total.Ambiguous, total.Failed)
	fmt.Printf("net drill: faults injected: %v\n", px.Stats().String())
	fmt.Printf("net drill: client fault path: redials=%d retries=%d ambiguous=%d busy=%d\n",
		faults.Redials, faults.Retries, faults.Ambiguous, faults.Busy)

	// The server must have survived the abuse: a fault-free client's
	// concurrent burst completes (stuck or leaked workers would hang it).
	dc, err := client.Dial(saddr.String())
	if err != nil {
		return fmt.Errorf("post-chaos direct dial: %v", err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := dc.NewHandle()
			for i := 0; i < 64; i++ {
				k := uint64(w*64+i) + 2
				h.Insert(k, k)
				h.Find(k)
			}
		}(w)
	}
	wg.Wait()
	if err := dc.Close(); err != nil {
		return fmt.Errorf("post-chaos client close: %v", err)
	}
	fmt.Printf("net drill: server healthy after faults (%d fault-free ops)\n", workers*128)

	ctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("graceful drain: %v", err)
	}
	fmt.Println("net drill: graceful drain complete")
	return nil
}
