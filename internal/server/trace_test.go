package server

// End-to-end tests of the request-tracing layer: a head-sampled client
// against a real loopback server (standalone, replicated, faulted),
// asserting the spans each hop records line up into one causally
// consistent trace — and that tracing keeps the warmed point path at
// zero allocations.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// dialTraced connects a client that head-samples every operation.
// Sampling stays off until the client has seen the server's CapTrace
// bit, so the helper runs the STATS round trip up front.
func dialTraced(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.DialConfig(addr, client.Config{TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	return c
}

func findSpan(spans []trace.Span, kind byte) (trace.Span, bool) {
	for _, sp := range spans {
		if sp.Kind == kind {
			return sp, true
		}
	}
	return trace.Span{}, false
}

func serverTraceByID(ts []client.ServerTrace, id uint64) ([]trace.Span, bool) {
	for _, st := range ts {
		if st.TraceID == id {
			return st.Spans, true
		}
	}
	return nil, false
}

// traceDumper is the OpTraceDump surface Client and Mux share.
type traceDumper interface {
	ServerTraces(max int) ([]client.ServerTrace, error)
}

// pollServerTrace drains the server's collector until a trace with the
// wanted id carries every wanted span kind (some spans — repl-ship,
// follower apply — are recorded asynchronously after the client's op
// returns).
func pollServerTrace(t *testing.T, c traceDumper, id uint64, kinds ...byte) []trace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ts, err := c.ServerTraces(0)
		if err != nil {
			t.Fatal(err)
		}
		if spans, ok := serverTraceByID(ts, id); ok {
			have := true
			for _, k := range kinds {
				if _, ok := findSpan(spans, k); !ok {
					have = false
					break
				}
			}
			if have {
				return spans
			}
		}
		if time.Now().After(deadline) {
			ts, _ := c.ServerTraces(0)
			spans, _ := serverTraceByID(ts, id)
			t.Fatalf("trace %016x never collected span kinds %v on the server; have %+v", id, kinds, spans)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// wallSlack tolerates the skew between independent wall-clock stamps
// taken on different goroutines (span starts are UnixNano reads, not
// one shared monotonic timeline).
const wallSlack = uint64(2 * time.Millisecond)

func TestTraceEndToEnd(t *testing.T) {
	s, addr := startServerCfg(t, "occ", 1<<16, Config{})
	c := dialTraced(t, addr)
	h := c.NewHandle()
	h.Insert(7, 70)
	if v, ok := h.Find(7); !ok || v != 70 {
		t.Fatalf("Find(7) = %d,%v", v, ok)
	}

	local := c.LocalTraces(0)
	if len(local) != 2 {
		t.Fatalf("client collected %d traces, want 2 (insert, find)", len(local))
	}
	for _, lt := range local {
		cl, ok := findSpan(lt.Spans, trace.KindClient)
		if !ok {
			t.Fatalf("trace %016x: no client span: %+v", lt.TraceID, lt.Spans)
		}
		spans := pollServerTrace(t, c, lt.TraceID, trace.KindQueueWait, trace.KindService)
		qw, _ := findSpan(spans, trace.KindQueueWait)
		sv, _ := findSpan(spans, trace.KindService)
		if qw.Op != cl.Op || sv.Op != cl.Op {
			t.Fatalf("trace %016x: server ops %s/%s, client op %s",
				lt.TraceID, wire.OpName(qw.Op), wire.OpName(sv.Op), wire.OpName(cl.Op))
		}
		// Causality: issued before enqueued, enqueued before served,
		// served within the client's round trip.
		if qw.Start+wallSlack < cl.Start {
			t.Fatalf("queue-wait starts %dns before the client span", cl.Start-qw.Start)
		}
		if sv.Start+wallSlack < qw.Start {
			t.Fatalf("service starts before queue-wait (%d < %d)", sv.Start, qw.Start)
		}
		if sv.Start+sv.Dur > cl.Start+cl.Dur+wallSlack {
			t.Fatalf("service ends %dns after the client span", sv.Start+sv.Dur-cl.Start-cl.Dur)
		}
	}

	// The in-process JSON view renders the same traces with symbolic
	// kind and op names (what /debug/traces serves).
	dump := s.TracesDump(0)
	if len(dump) == 0 {
		t.Fatal("TracesDump returned nothing")
	}
	for _, tr := range dump {
		if len(tr.TraceID) != 16 {
			t.Fatalf("dump trace id %q not 16 hex digits", tr.TraceID)
		}
		for _, sp := range tr.Spans {
			if sp.Kind == "" || sp.Kind == "?" {
				t.Fatalf("dump span with unnamed kind: %+v", sp)
			}
		}
	}
}

// TestTraceReplicatedCausality is the acceptance drill: one traced
// mutation against a replicated pair yields a single trace id whose
// spans — client, queue-wait, service, commit-wait, repl-ship on the
// primary, apply on the follower — nest causally.
func TestTraceReplicatedCausality(t *testing.T) {
	_, _, paddr, faddr := startReplPair(t, "occ", 1<<16)
	c := dialTraced(t, paddr)
	h := c.NewHandle()
	h.Insert(42, 420)
	waitReplSeq(t, faddr, 1)

	local := c.LocalTraces(0)
	if len(local) != 1 {
		t.Fatalf("client collected %d traces, want 1", len(local))
	}
	tid := local[0].TraceID
	cl, ok := findSpan(local[0].Spans, trace.KindClient)
	if !ok {
		t.Fatalf("no client span in %+v", local[0].Spans)
	}

	prim := pollServerTrace(t, c, tid,
		trace.KindQueueWait, trace.KindService, trace.KindCommitWait, trace.KindReplShip)
	qw, _ := findSpan(prim, trace.KindQueueWait)
	sv, _ := findSpan(prim, trace.KindService)
	cw, _ := findSpan(prim, trace.KindCommitWait)
	sh, _ := findSpan(prim, trace.KindReplShip)

	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fol := pollServerTrace(t, fc, tid, trace.KindApply)
	ap, _ := findSpan(fol, trace.KindApply)

	// The whole pipeline nests inside the client's round trip...
	for _, sp := range []trace.Span{qw, sv, cw, sh, ap} {
		if sp.Start+wallSlack < cl.Start {
			t.Fatalf("%s starts before the client span", trace.KindName(sp.Kind))
		}
		if sp.Start+sp.Dur > cl.Start+cl.Dur+wallSlack {
			t.Fatalf("%s ends after the client span", trace.KindName(sp.Kind))
		}
	}
	// ...queue-wait precedes service, the commit wait sits inside the
	// service span...
	if sv.Start+wallSlack < qw.Start {
		t.Fatal("service starts before queue-wait")
	}
	if cw.Start+wallSlack < sv.Start || cw.Start+cw.Dur > sv.Start+sv.Dur+wallSlack {
		t.Fatalf("commit-wait [%d,+%d] escapes service [%d,+%d]", cw.Start, cw.Dur, sv.Start, sv.Dur)
	}
	// ...the ship span covers the follower's apply, and the commit wait
	// cannot end before the covering ack arrived.
	if ap.Start+wallSlack < sh.Start {
		t.Fatal("follower applied the entry before the primary shipped it")
	}
	if sh.Start+sh.Dur > cw.Start+cw.Dur+wallSlack {
		t.Fatal("ship->ack ends after the commit wait released")
	}
	// Same log position attributed on every replication span.
	if sh.Aux != cw.Aux || ap.Aux != sh.Aux {
		t.Fatalf("seq attribution differs: ship %d commit-wait %d apply %d", sh.Aux, cw.Aux, ap.Aux)
	}
}

// TestTraceMuxStage: through the shared-connection mux, a traced point
// op additionally records the submit->seal staging span, with the
// coalesced frame's waiter count in Aux, and the server serves it as
// the batch opcode its class seals into.
func TestTraceMuxStage(t *testing.T) {
	_, addr := startServerCfg(t, "occ", 1<<16, Config{})
	m, err := client.DialMux(addr, client.Config{TraceEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Stats(); err != nil {
		t.Fatal(err)
	}
	h := m.NewHandle()
	h.Insert(9, 90)

	local := m.LocalTraces(0)
	if len(local) != 1 {
		t.Fatalf("mux client collected %d traces, want 1", len(local))
	}
	mx, ok := findSpan(local[0].Spans, trace.KindMuxStage)
	if !ok {
		t.Fatalf("no mux-stage span in %+v", local[0].Spans)
	}
	if mx.Aux < 1 {
		t.Fatalf("mux-stage waiter count %d, want >= 1", mx.Aux)
	}
	spans := pollServerTrace(t, m, local[0].TraceID, trace.KindService)
	if sv, _ := findSpan(spans, trace.KindService); sv.Op != wire.OpMPut {
		t.Fatalf("server service op %s, want MPUT", wire.OpName(sv.Op))
	}
}

// TestTraceChaosDrill: tracing survives fault injection. A
// head-sample-everything client hammers mutations through a faulted
// proxy (drops, delays, truncations force redials and retries); spans
// must never leak across reconnects — every server-side span for a
// trace id the client minted must carry that operation's opcode, and
// no span may carry an unknown kind or a zero trace id.
func TestTraceChaosDrill(t *testing.T) {
	_, addr := startServerCfg(t, "occ", 1<<16, Config{})
	pxCfg := faultnet.Config{
		Seed:         42,
		DelayRate:    0.05,
		DelayDur:     200 * time.Microsecond,
		DropRate:     0.01,
		TruncateRate: 0.005,
	}
	px := faultnet.New(addr, pxCfg)
	paddr, err := px.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })

	c, err := client.DialConfig(paddr.String(), client.Config{
		TraceEvery:    1,
		DialTimeout:   2 * time.Second,
		RetryAttempts: 16,
		RetryBackoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i := 0; ; i++ {
		if _, err := c.Stats(); err == nil {
			break
		} else if i > 50 {
			t.Fatalf("STATS through the proxy keeps failing: %v", err)
		}
	}

	h, ok := c.NewHandle().(client.TryHandle)
	if !ok {
		t.Fatal("handle lacks TryHandle")
	}
	const n = 300
	ambiguous := 0
	for i := 0; i < n; i++ {
		k := uint64(1 + i)
		if _, _, err := h.TryInsert(k, k*7); err != nil {
			if !errors.Is(err, client.ErrAmbiguous) {
				t.Fatalf("TryInsert(%d): %v\nrepro: %s", k, err, pxCfg.ReproString())
			}
			ambiguous++
		}
		if i%3 == 0 {
			if _, _, err := h.TryFind(k); err != nil && !errors.Is(err, client.ErrAmbiguous) {
				t.Fatalf("TryFind(%d): %v\nrepro: %s", k, err, pxCfg.ReproString())
			}
		}
	}
	t.Logf("chaos: %d mutations, %d ambiguous, faults: %s", n, ambiguous, px.Stats().String())

	// The client's view: which opcode each minted id belongs to.
	mintedOp := make(map[uint64]byte)
	for _, lt := range c.LocalTraces(0) {
		if lt.TraceID == 0 {
			t.Fatal("client collected a zero trace id")
		}
		for _, sp := range lt.Spans {
			if trace.KindName(sp.Kind) == "?" {
				t.Fatalf("client span with unknown kind %#x", sp.Kind)
			}
		}
		if cl, ok := findSpan(lt.Spans, trace.KindClient); ok {
			mintedOp[lt.TraceID] = cl.Op
		}
	}
	if len(mintedOp) == 0 {
		t.Fatal("chaos run sampled no client traces")
	}

	// The server's view, drained through the same faulted proxy: no
	// corrupted kinds, no zero ids, and every span whose id the client
	// also holds names the same operation — a span that jumped to
	// another request across a redial would trip the opcode check.
	var ts []client.ServerTrace
	for i := 0; ; i++ {
		if ts, err = c.ServerTraces(0); err == nil {
			break
		} else if i > 50 {
			t.Fatalf("trace dump through the proxy keeps failing: %v", err)
		}
	}
	if len(ts) == 0 {
		t.Fatal("server collected no traces through the chaos")
	}
	for _, st := range ts {
		if st.TraceID == 0 {
			t.Fatal("server dumped a zero trace id")
		}
		for _, sp := range st.Spans {
			if trace.KindName(sp.Kind) == "?" {
				t.Fatalf("server span with unknown kind %#x", sp.Kind)
			}
			if want, ok := mintedOp[st.TraceID]; ok && sp.Op != 0 && sp.Op != want {
				t.Fatalf("trace %016x: server span op %s, client issued %s — span leaked across a reconnect",
					st.TraceID, wire.OpName(sp.Op), wire.OpName(want))
			}
		}
	}
}

// TestAllocsTraceRemotePoint: the ISSUE 10 alloc gate — with tracing
// ON (every op head-sampled), the warmed remote point path still
// allocates nothing: trace-ctx frame prefix, server span records and
// tail-sample offers all run on pooled or fixed storage.
func TestAllocsTraceRemotePoint(t *testing.T) {
	_, addr := startServerCfg(t, "occ", 1<<16, Config{})
	c := dialTraced(t, addr)
	h := c.NewHandle()
	for k := uint64(1); k <= 10_000; k++ {
		h.Insert(k, k)
	}
	for i := 0; i < 2000; i++ {
		h.Find(uint64(1 + i%10_000))
	}
	if avg := testing.AllocsPerRun(500, func() { h.Find(7777) }); avg != 0 {
		t.Errorf("traced remote Find allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() { h.Insert(7777, 1) }); avg != 0 {
		t.Errorf("traced remote present-key Insert allocates %.2f/op, want 0", avg)
	}
}
