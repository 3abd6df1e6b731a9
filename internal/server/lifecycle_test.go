package server

// ISSUE 8 server lifecycle coverage: MaxConns admission control (BUSY
// answer + close, counted), IdleTimeout reaping (fully idle connections
// only), and Shutdown's graceful drain (in-flight responses flushed,
// connections closed with cause "drained").

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestMaxConnsReject: the connection over the cap is answered with one
// BUSY frame and closed; after a slot frees, the next dial is served.
func TestMaxConnsReject(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	first := rawDial(t, addr.String())
	// Prove the first connection is registered (not just accepted).
	var b []byte
	b = wire.AppendPoint(b, 1, wire.OpPut, 100, 200)
	if _, err := first.Write(b); err != nil {
		t.Fatal(err)
	}
	if id, op, _ := readResp(t, first); id != 1 || op != wire.RespPoint {
		t.Fatalf("first conn got id=%d op=%#x", id, op)
	}

	over := rawDial(t, addr.String())
	id, op, _ := readResp(t, over)
	if id != 0 || op != wire.RespBusy {
		t.Fatalf("over-cap conn got id=%d op=%#x, want BUSY", id, op)
	}
	// Nothing follows BUSY: the rejected socket closes.
	over.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := over.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("over-cap conn read after BUSY: %v, want EOF", err)
	}
	if got := s.MetricsDump().Counters["teardown_max_conns_reject_total"]; got != 1 {
		t.Fatalf("teardown_max_conns_reject_total = %d, want 1", got)
	}

	// Freeing the slot re-admits.
	first.Close()
	waitFor(t, "slot to free", func() bool { return s.MetricsDump().Gauges["open_conns"] == 0 })
	checkServes(t, addr.String())
}

// TestIdleTimeoutReaps: a connection that sends nothing is reaped with
// cause idle_timeout; one that keeps trickling requests survives.
func TestIdleTimeoutReaps(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	idle := rawDial(t, addr.String())
	busy := rawDial(t, addr.String())
	// The busy connection outlives several idle windows by staying
	// active, a request every quarter window: a descheduled sleeper has
	// three trickle periods of margin before it would look idle itself.
	var b []byte
	for i := 0; i < 12; i++ {
		time.Sleep(25 * time.Millisecond)
		b = wire.AppendPoint(b[:0], uint64(i+1), wire.OpGet, 42, 0)
		if _, err := busy.Write(b); err != nil {
			t.Fatalf("busy conn write %d: %v", i, err)
		}
		if id, op, _ := readResp(t, busy); id != uint64(i+1) || op != wire.RespPoint {
			t.Fatalf("busy conn round %d got id=%d op=%#x", i, id, op)
		}
	}
	// The idle one must be gone by now (reaped within ~the first window).
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("idle conn read: %v, want EOF", err)
	}
	if got := s.MetricsDump().Counters["teardown_idle_timeout_total"]; got != 1 {
		t.Fatalf("teardown_idle_timeout_total = %d, want 1", got)
	}
	if got := s.MetricsDump().Counters["teardown_peer_closed_total"]; got != 0 {
		t.Fatalf("teardown_peer_closed_total = %d before any peer close", got)
	}
}

// TestMidFrameStallIsReadError: under IdleTimeout, only a connection
// with no partial frame buffered is idle. A peer that goes quiet before
// its first byte or right after a whole frame is reaped as idle; one
// that stalls inside a header or a payload is a read error.
func TestMidFrameStallIsReadError(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{IdleTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	put := wire.AppendPoint(nil, 1, wire.OpPut, 42, 1)
	for _, tc := range []struct {
		name  string
		sent  []byte
		cause string
	}{
		{"silent", nil, "idle_timeout"},
		{"after a frame", put, "idle_timeout"},
		{"mid-header", put[:5], "read_error"},
		{"mid-payload", put[:wire.HeaderLen+8], "read_error"},
	} {
		counter := "teardown_" + tc.cause + "_total"
		before := s.MetricsDump().Counters[counter]
		nc := rawDial(t, addr.String())
		if len(tc.sent) > 0 {
			if _, err := nc.Write(tc.sent); err != nil {
				t.Fatal(err)
			}
		}
		if len(tc.sent) == len(put) {
			readResp(t, nc)
		}
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read %v, want EOF once the server closes", tc.name, err)
		}
		waitFor(t, tc.name+" teardown", func() bool { return s.MetricsDump().Counters[counter] == before+1 })
	}
	if got := s.MetricsDump().Counters["teardown_idle_timeout_total"]; got != 2 {
		t.Errorf("teardown_idle_timeout_total = %d, want 2", got)
	}
	if got := s.MetricsDump().Counters["teardown_read_error_total"]; got != 2 {
		t.Errorf("teardown_read_error_total = %d, want 2", got)
	}
}

// TestShutdownDrains: responses to requests the server claimed before
// the drain kick are flushed before the connection closes — the peer
// sees a clean prefix of its pipelined burst, then EOF, and the
// connection is counted as drained, not errored.
func TestShutdownDrains(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	nc := rawDial(t, addr.String())
	const N = 64
	var b []byte
	for i := 0; i < N; i++ {
		b = wire.AppendPoint(b, uint64(i+1), wire.OpPut, uint64(i+2), uint64(i)<<8)
	}
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	// Let the server claim some of the burst, then drain mid-stream.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Read whatever arrived: complete, non-duplicated responses, then a
	// clean EOF — never a torn frame.
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	got := 0
	seen := make(map[uint64]bool)
	for {
		var hdr [wire.HeaderLen]byte
		if _, err := io.ReadFull(nc, hdr[:]); err != nil {
			if err != io.EOF {
				t.Fatalf("after %d responses: %v (a drained conn must not tear a frame)", got, err)
			}
			break
		}
		length := binary.LittleEndian.Uint32(hdr[:4])
		id := binary.LittleEndian.Uint64(hdr[4:12])
		if hdr[12] != wire.RespPoint || id < 1 || id > N || seen[id] {
			t.Fatalf("response %d: id=%d op=%#x (dup=%v)", got, id, hdr[12], seen[id])
		}
		seen[id] = true
		if _, err := io.ReadFull(nc, make([]byte, length-9)); err != nil {
			t.Fatalf("response %d payload torn: %v", got, err)
		}
		got++
	}
	if got == 0 {
		t.Fatal("drain flushed no responses (server had claimed requests)")
	}
	d := s.MetricsDump()
	if d.Counters["teardown_drained_total"] != 1 {
		t.Fatalf("teardown_drained_total = %d, want 1 (causes: %v)", d.Counters["teardown_drained_total"], d.Counters)
	}
	if d.Gauges["open_conns"] != 0 {
		t.Fatalf("open_conns = %d after drain", d.Gauges["open_conns"])
	}

	// Shutdown implies Close: new dials must fail.
	if nc2, err := net.DialTimeout("tcp", addr.String(), 200*time.Millisecond); err == nil {
		nc2.Close()
		t.Fatal("dial succeeded after Shutdown")
	}
}

// TestShutdownIdempotentWithClose: Shutdown after Close (and vice versa)
// is a no-op, not a panic.
func TestShutdownIdempotentWithClose(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
