package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/server"
)

// TestRenderAgainstReplPair drives the real polling + rendering path
// against an in-process primary/follower pair carrying traced load:
// the screen must show both roles, the follower's lag, the primary's
// replication quantiles, and a slowest-traces breakdown.
func TestRenderAgainstReplPair(t *testing.T) {
	fol, err := server.New(bench.NewDict, "OCC-ABtree", 1<<16, server.Config{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	faddr, err := fol.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fol.Close() })
	prim, err := server.New(bench.NewDict, "OCC-ABtree", 1<<16, server.Config{Followers: []string{faddr.String()}})
	if err != nil {
		t.Fatal(err)
	}
	paddr, err := prim.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prim.Close() })

	c, err := client.DialConfig(paddr.String(), client.Config{TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	h := c.NewHandle()
	for k := uint64(1); k <= 50; k++ {
		h.Insert(k, k)
		h.Find(k)
	}

	members := []*member{{addr: paddr.String()}, {addr: faddr.String()}, {addr: "127.0.0.1:1"}}
	t.Cleanup(func() {
		for _, m := range members {
			m.drop()
		}
	})
	var screen string
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, m := range members {
			m.poll(5)
		}
		screen = render(members, 5, time.Now())
		// Poll until the follower has applied everything and the
		// primary's dump holds a slow-sampled trace.
		if strings.Contains(screen, "SLOWEST TRACES") &&
			members[1].err == nil && members[1].st.ReplSeq == 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("screen never settled:\n%s", screen)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, want := range []string{
		"primary", "follower", "DOWN", "OCC-ABtree",
		"repl: ship->ack p50/p99", "commit-wait p50/p99",
		"SLOWEST TRACES", "service", "queue-wait",
	} {
		if !strings.Contains(screen, want) {
			t.Errorf("screen lacks %q:\n%s", want, screen)
		}
	}
	// The follower row shows zero lag once it caught up; the DOWN row
	// names the unreachable member.
	if !strings.Contains(screen, "127.0.0.1:1") {
		t.Errorf("unreachable member missing from screen:\n%s", screen)
	}

	// A second refresh has counter baselines, so the rate columns turn
	// numeric on live members.
	for _, m := range members {
		m.poll(5)
	}
	screen = render(members, 5, time.Now())
	if !strings.Contains(screen, "0.0") {
		t.Errorf("second refresh renders no rates:\n%s", screen)
	}
}
