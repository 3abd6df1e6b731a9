package client_test

// ISSUE 8 client fault-path coverage, from outside the package (the
// contract is the exported surface): transparent GET retry across
// injected disconnects (differential against an unfaulted client),
// the mutation-ambiguity contract (ErrAmbiguous exactly when the frame
// may have been received, never for a BUSY rejection or an unwritten
// frame), dial timeouts, and the mux's reconnect/re-enqueue behaviour.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/faultnet"
	"repro/internal/linearizability"
	"repro/internal/server"
	"repro/internal/wire"
)

// startBackend runs a real server on loopback.
func startBackend(t *testing.T) (*server.Server, string) {
	t.Helper()
	s, err := server.New(bench.NewDict, "OCC-ABtree", 1<<16, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// evilFront is a listener that passes connections through to a real
// backend except for chosen connection indexes (1-based accept order),
// which get a scripted misbehaviour instead.
func evilFront(t *testing.T, backend string, evil map[int]func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go serveFront(ln, backend, evil)
	return ln.Addr().String()
}

// serveFront is evilFront's accept loop; it returns when ln closes.
func serveFront(ln net.Listener, backend string, evil map[int]func(net.Conn)) {
	var idx atomic.Int32
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		if fn := evil[int(idx.Add(1))]; fn != nil {
			go fn(nc)
			continue
		}
		go func(nc net.Conn) {
			defer nc.Close()
			bc, err := net.Dial("tcp", backend)
			if err != nil {
				return
			}
			defer bc.Close()
			go io.Copy(bc, nc)
			io.Copy(nc, bc)
		}(nc)
	}
}

// readOneFrame consumes exactly one request frame from a raw conn.
func readOneFrame(nc net.Conn) bool {
	var hdr [wire.HeaderLen]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr[:4]) - (wire.HeaderLen - 4)
	_, err := io.ReadFull(nc, make([]byte, n))
	return err == nil
}

// readBatchFrame consumes one batch request frame (the only kind a mux
// data connection sends untraced) and returns its id and key count.
func readBatchFrame(nc net.Conn) (id uint64, n int, ok bool) {
	var hdr [wire.HeaderLen]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return 0, 0, false
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:4])-(wire.HeaderLen-4))
	if _, err := io.ReadFull(nc, payload); err != nil || len(payload) < 4 {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(hdr[4:12]), int(binary.LittleEndian.Uint32(payload)), true
}

// swallowFrameAndClose is the ambiguity script: the frame is received
// (so the mutation may execute in a real partial-failure) but the
// connection dies before any response.
func swallowFrameAndClose(nc net.Conn) {
	readOneFrame(nc)
	nc.Close()
}

// busyAndClose is the admission-rejection script: BUSY before reading
// anything, then close — the server-side MaxConns behaviour.
func busyAndClose(nc net.Conn) {
	nc.Write(wire.AppendRespBusy(nil, 0))
	nc.Close()
}

// TestGetRetriesAcrossDisconnect is the differential satellite: a GET
// stream with injected connection kills must return exactly what an
// unfaulted client returns.
func TestGetRetriesAcrossDisconnect(t *testing.T) {
	_, backend := startBackend(t)
	px := faultnet.New(backend, faultnet.Config{})
	paddr, err := px.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })

	direct, err := client.Dial(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	dh := direct.NewHandle()
	for k := uint64(2); k < 202; k += 2 {
		dh.Insert(k, k*3)
	}

	faulted, err := client.DialConfig(paddr.String(), client.Config{RetryAttempts: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { faulted.Close() })
	fh := faulted.NewHandle()

	for i, k := 0, uint64(2); k < 402; i, k = i+1, k+1 {
		if i%25 == 10 {
			px.DropAll() // sever every live proxied connection mid-stream
		}
		fv, fok := fh.Find(k)
		dv, dok := dh.Find(k)
		if fv != dv || fok != dok {
			t.Fatalf("key %d: faulted Find = (%d,%v), unfaulted = (%d,%v)", k, fv, fok, dv, dok)
		}
	}
	if fs := faulted.FaultStats(); fs.Redials == 0 {
		t.Fatalf("no redials recorded across %d injected disconnects: %+v", 16, fs)
	}
	if fs := faulted.FaultStats(); fs.Ambiguous != 0 {
		t.Fatalf("GET-only stream recorded ambiguity: %+v", fs)
	}
}

// TestMutationAmbiguity: a PUT whose frame the peer received before the
// connection died must fail with ErrAmbiguous — and the handle must
// recover on its next operation.
func TestMutationAmbiguity(t *testing.T) {
	_, backend := startBackend(t)
	// Conn 1 is the dial-time control handle; conn 2 is NewHandle's.
	front := evilFront(t, backend, map[int]func(net.Conn){2: swallowFrameAndClose})
	c, err := client.DialConfig(front, client.Config{RetryAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h := c.NewHandle().(client.TryHandle)

	_, _, err = h.TryInsert(500, 501)
	if !errors.Is(err, client.ErrAmbiguous) {
		t.Fatalf("TryInsert on a swallowed frame: %v, want ErrAmbiguous", err)
	}
	if fs := c.FaultStats(); fs.Ambiguous != 1 {
		t.Fatalf("FaultStats after ambiguity: %+v", fs)
	}
	// Next op redials (conn 3, passed through) and works.
	if _, _, err := h.TryFind(500); err != nil {
		t.Fatalf("TryFind after ambiguous mutation: %v", err)
	}
}

// TestGetNotAmbiguousOnSwallowedFrame: the same swallowed-frame fault on
// a GET retries transparently — reads are idempotent, so the ambiguity
// contract never applies to them.
func TestGetNotAmbiguousOnSwallowedFrame(t *testing.T) {
	_, backend := startBackend(t)
	front := evilFront(t, backend, map[int]func(net.Conn){2: swallowFrameAndClose})
	c, err := client.DialConfig(front, client.Config{RetryAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h := c.NewHandle().(client.TryHandle)

	if _, _, err := h.TryFind(123); err != nil {
		t.Fatalf("TryFind across a swallowed frame: %v", err)
	}
	fs := c.FaultStats()
	if fs.Ambiguous != 0 || fs.Redials == 0 {
		t.Fatalf("want a clean retry (redial, no ambiguity), got %+v", fs)
	}
}

// TestBusyRetriesMutation: a BUSY rejection arrives before the server
// reads anything, so even a mutation replays transparently — no
// ErrAmbiguous, value applied exactly once.
func TestBusyRetriesMutation(t *testing.T) {
	_, backend := startBackend(t)
	front := evilFront(t, backend, map[int]func(net.Conn){2: busyAndClose})
	c, err := client.DialConfig(front, client.Config{RetryAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h := c.NewHandle().(client.TryHandle)

	if _, _, err := h.TryInsert(600, 601); err != nil {
		t.Fatalf("TryInsert across BUSY: %v", err)
	}
	fs := c.FaultStats()
	if fs.Busy == 0 || fs.Ambiguous != 0 {
		t.Fatalf("want busy-counted clean retry, got %+v", fs)
	}
	if v, ok, err := h.TryFind(600); err != nil || !ok || v != 601 {
		t.Fatalf("after BUSY-retried insert: v=%d ok=%v err=%v", v, ok, err)
	}
}

// TestBatchPipelineSwallowed: the swallowed-frame fault under a
// 3-frame batch, whose frames go out on a goroutine of their own while
// the caller reads. The failed read must stop the writer and the call
// must return: MGET replays on the next connection, MPUT fails with
// ErrAmbiguous, and the handle then serves its next batch.
func TestBatchPipelineSwallowed(t *testing.T) {
	_, backend := startBackend(t)
	// Conn 1 is the control handle; conns 2 and 4 are the two handles'
	// first, and conns 3 and 5 their redials, passed through.
	front := evilFront(t, backend, map[int]func(net.Conn){2: swallowFrameAndClose, 4: swallowFrameAndClose})
	c, err := client.DialConfig(front, client.Config{RetryAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	const n = 2*wire.MaxBatch + 1
	keys, vals := make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(i+7)
	}
	got, oks := make([]uint64, n), make([]bool, n)

	reader := c.NewHandle().(dict.Batcher)
	reader.FindBatch(keys, got, oks)
	if fs := c.FaultStats(); fs.Redials != 1 || fs.Ambiguous != 0 {
		t.Fatalf("MGET across a swallowed frame: %+v, want one redial and no ambiguity", fs)
	}

	writer := c.NewHandle().(dict.Batcher)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), client.ErrAmbiguous.Error()) {
				t.Fatalf("MPUT across a swallowed frame: panic %v, want ErrAmbiguous", r)
			}
		}()
		writer.InsertBatch(keys, vals, got, oks)
	}()
	writer.InsertBatch(keys, vals, got, oks)
	reader.FindBatch(keys, got, oks)
	for i := range keys {
		if !oks[i] || got[i] != vals[i] {
			t.Fatalf("key %d: (%d, %v) after the replayed MPUT, want (%d, true)", keys[i], got[i], oks[i], vals[i])
		}
	}
	if fs := c.FaultStats(); fs.Redials != 2 || fs.Ambiguous != 1 {
		t.Fatalf("after the ambiguous MPUT: %+v, want two redials and one ambiguity", fs)
	}
}

// TestDialTimeout: Config.DialTimeout bounds the dial — a dead address
// fails fast instead of hanging a worker.
func TestDialTimeout(t *testing.T) {
	// RFC 5737 TEST-NET-1: reserved for documentation, never routed. The
	// dial either fails immediately (no route) or hits the timeout.
	t0 := time.Now()
	_, err := client.DialConfig("192.0.2.1:7471", client.Config{DialTimeout: 250 * time.Millisecond, RetryAttempts: -1})
	if err == nil {
		t.Fatal("dial to TEST-NET succeeded")
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("dial took %v despite a 250ms DialTimeout", d)
	}
}

// TestMuxReconnect: the shared-connection mux redials across injected
// disconnects; concurrent GET callers all complete with correct values
// and nothing leaks. (A pass of GETs is resent however far it got:
// reads are idempotent.)
func TestMuxReconnect(t *testing.T) {
	_, backend := startBackend(t)
	px := faultnet.New(backend, faultnet.Config{})
	paddr, err := px.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })

	direct, err := client.Dial(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	dh := direct.NewHandle()
	const keys = 128
	for k := uint64(2); k < 2+keys; k++ {
		dh.Insert(k, k*7)
	}

	m, err := client.DialMux(paddr.String(), client.Config{RetryAttempts: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	const workers = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	var done atomic.Bool
	go func() {
		for !done.Load() {
			time.Sleep(3 * time.Millisecond)
			px.DropAll()
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			for i := 0; i < 400; i++ {
				k := uint64(2 + (i+w*31)%keys)
				v, ok := h.Find(k)
				if !ok || v != k*7 {
					errc <- fmt.Errorf("worker %d: Find(%d) = (%d,%v), want (%d,true)", w, k, v, ok, k*7)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if fs := m.FaultStats(); fs.Redials == 0 {
		t.Fatalf("mux survived DropAll storm without redialing? %+v", fs)
	}
}

// TestMuxMutationAmbiguity: a mutation in flight on the shared
// connection when it dies completes with ErrAmbiguous through the mux
// handle's Try surface, and the mux keeps serving afterwards.
func TestMuxMutationAmbiguity(t *testing.T) {
	_, backend := startBackend(t)
	// Conn 1: control client dial. Conn 2: the mux's shared connection.
	front := evilFront(t, backend, map[int]func(net.Conn){2: swallowFrameAndClose})
	m, err := client.DialMux(front, client.Config{RetryAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	h := m.NewHandle().(client.TryHandle)

	_, _, err = h.TryInsert(700, 701)
	if !errors.Is(err, client.ErrAmbiguous) {
		t.Fatalf("mux TryInsert on a swallowed frame: %v, want ErrAmbiguous", err)
	}
	// The next pass redials (conn 3, passed through); the same handle
	// keeps working, and GETs were never at ambiguity risk.
	if _, _, err := h.TryFind(700); err != nil {
		t.Fatalf("mux TryFind after ambiguous mutation: %v", err)
	}
	if fs := m.FaultStats(); fs.Ambiguous == 0 {
		t.Fatalf("mux ambiguity not counted: %+v", fs)
	}
}

// TestMuxSideDialRetries: a mux handle's batches ride a side connection
// dialed on first use. That dial goes through the retry policy, as a
// redial does, so a batch issued while the server refuses connections
// waits the outage out instead of panicking; the first dial is not
// counted as a redial.
func TestMuxSideDialRetries(t *testing.T) {
	_, backend := startBackend(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go serveFront(ln, backend, nil)
	m, err := client.DialMux(addr, client.Config{RetryAttempts: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	h := m.NewHandle()
	h.Insert(5, 50)

	ln.Close() // the address now refuses connections...
	relisten := make(chan net.Listener, 1)
	go func() { // ...until it is back 50 ms later
		time.Sleep(50 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			close(relisten)
			return
		}
		relisten <- ln
		serveFront(ln, backend, nil)
	}()
	t.Cleanup(func() {
		if ln, ok := <-relisten; ok {
			ln.Close()
		}
	})
	keys := []uint64{5, 6}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	h.(dict.Batcher).FindBatch(keys, vals, found)
	if !found[0] || vals[0] != 50 || found[1] {
		t.Fatalf("FindBatch = %v %v, want [50 _] [true false]", vals, found)
	}
	if fs := m.FaultStats(); fs.Retries == 0 || fs.Redials != 0 {
		t.Fatalf("side dial through a refused address: %+v, want retries > 0 and no redial", fs)
	}
}

// TestMuxReplyOutOfOrder: a server answers a connection's frames in the
// order it read them, so a reply for any frame other than the oldest
// unanswered one is a protocol error. The script holds its reply to the
// mux's first frame until a GET and a DELETE are queued behind it, so
// the next pass carries an MGET and an MDELETE frame, and it answers the
// MDELETE first, with made-up results. The mux must deliver none of
// them: the DELETE, whose frame was written, fails with ErrAmbiguous,
// and the GET goes into the next pass, which redials (conn 3, passed
// through) and reads the backend's value.
func TestMuxReplyOutOfOrder(t *testing.T) {
	_, backend := startBackend(t)
	direct, err := client.Dial(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	direct.NewHandle().Insert(8, 80)

	firstRead, release := make(chan struct{}), make(chan struct{})
	twoFrames := make(chan bool, 1)
	script := func(nc net.Conn) {
		defer nc.Close()
		id, n, ok := readBatchFrame(nc)
		if !ok {
			return
		}
		close(firstRead)
		<-release
		nc.Write(wire.AppendRespBatch(nil, id, make([]uint64, n), make([]bool, n)))
		getID, _, ok1 := readBatchFrame(nc)
		delID, n, ok2 := readBatchFrame(nc)
		pair := ok1 && ok2 && delID == getID+1
		twoFrames <- pair
		if !pair {
			return
		}
		vals, oks := make([]uint64, n), make([]bool, n)
		for i := range vals {
			vals[i], oks[i] = 999, true
		}
		nc.Write(wire.AppendRespBatch(nil, delID, vals, oks))
		io.Copy(io.Discard, nc) // until the mux redials
	}
	// Conn 1: control client dial. Conn 2: the mux's shared connection.
	front := evilFront(t, backend, map[int]func(net.Conn){2: script})
	m, err := client.DialMux(front, client.Config{RetryAttempts: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	type result struct {
		v   uint64
		ok  bool
		err error
	}
	run := func(op func(h client.TryHandle) (uint64, bool, error)) chan result {
		c := make(chan result, 1)
		go func() {
			v, ok, err := op(m.NewHandle().(client.TryHandle))
			c <- result{v, ok, err}
		}()
		return c
	}
	first := run(func(h client.TryHandle) (uint64, bool, error) { return h.TryFind(1) })
	select {
	case <-firstRead:
	case <-time.After(10 * time.Second):
		t.Fatal("the first frame never reached the server")
	}
	get := run(func(h client.TryHandle) (uint64, bool, error) { return h.TryFind(8) })
	del := run(func(h client.TryHandle) (uint64, bool, error) { return h.TryDelete(9) })
	for deadline := time.Now().Add(10 * time.Second); m.Inflight() != 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("inflight %d, want 3", m.Inflight())
		}
	}
	time.Sleep(50 * time.Millisecond) // both queued, not only counted
	close(release)
	select {
	case pair := <-twoFrames:
		if !pair {
			t.Fatal("the second pass did not carry an MGET and an MDELETE frame")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second pass never reached the server")
	}
	if r := <-first; r.err != nil || r.ok {
		t.Errorf("first GET = %+v, want absent", r)
	}
	if r := <-get; r.err != nil || !r.ok || r.v != 80 {
		t.Errorf("GET behind the out-of-order reply = %+v, want (80, true)", r)
	}
	if r := <-del; !errors.Is(r.err, client.ErrAmbiguous) {
		t.Errorf("DELETE answered out of order = %+v, want ErrAmbiguous", r)
	}
	if fs := m.FaultStats(); fs.Redials != 1 || fs.Ambiguous != 1 {
		t.Errorf("after the out-of-order reply: %+v, want one redial and one ambiguity", fs)
	}
}

// chaosDict is what a chaos round needs of a Client or a Mux.
type chaosDict interface {
	Open(name string, keyRange uint64) error
	NewHandle() dict.Handle
	Close() error
}

// TestChaosLinearizable is the acceptance gate: chaos rounds through a
// fault-injecting proxy (delays, disconnects, truncations) until at
// least 40 faults fired, every round's history checker-clean with
// ambiguous mutations carried as Maybe ops, and the server still
// serving cleanly afterwards. It runs through plain handles and through
// a Mux's coalescing handles.
func TestChaosLinearizable(t *testing.T) {
	t.Run("handle", func(t *testing.T) {
		chaosLinearizable(t, func(addr string, cfg client.Config) (chaosDict, error) { return client.DialConfig(addr, cfg) })
	})
	t.Run("mux", func(t *testing.T) {
		chaosLinearizable(t, func(addr string, cfg client.Config) (chaosDict, error) { return client.DialMux(addr, cfg) })
	})
}

func chaosLinearizable(t *testing.T, dial func(addr string, cfg client.Config) (chaosDict, error)) {
	srv, backend := startBackend(t)
	pxCfg := faultnet.Config{
		Seed:         77,
		DelayRate:    0.05,
		DelayDur:     100 * time.Microsecond,
		DropRate:     0.02,
		TruncateRate: 0.01,
	}
	px := faultnet.New(backend, pxCfg)
	paddr, err := px.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })

	keys := []uint64{2, 5, 8, 11, 14, 17, 20, 23}
	ambiguous := func(err error) bool { return errors.Is(err, client.ErrAmbiguous) }
	var total linearizability.ChaosStats
	rounds := 0
	for px.Stats().Total() < 40 {
		if rounds++; rounds > 300 {
			t.Fatalf("only %d faults after %d rounds", px.Stats().Total(), rounds)
		}
		c, err := dial(paddr.String(), client.Config{RetryAttempts: 16})
		if err != nil {
			continue // dial-time STATS lost the retry lottery; redial fresh
		}
		// Fresh structure per round: the checker assumes an empty start.
		if err := c.Open("OCC-ABtree", 1<<16); err != nil {
			t.Fatalf("round %d OPEN: %v", rounds, err)
		}
		hist, stats := linearizability.RecordChaos(
			func() linearizability.TryDictHandle {
				return c.NewHandle().(linearizability.TryDictHandle)
			},
			linearizability.ChaosConfig{
				Workers:   4,
				OpsPerKey: 6,
				Keys:      keys,
				Seed:      1000 + uint64(rounds),
				Ambiguous: ambiguous,
			})
		if err := linearizability.Check(hist, nil); err != nil {
			t.Fatalf("round %d: history not linearizable under faults: %v\n%s (round seed %d)",
				rounds, err, pxCfg.ReproString(), 1000+uint64(rounds))
		}
		total.Ops += stats.Ops
		total.Ambiguous += stats.Ambiguous
		total.Failed += stats.Failed
		c.Close()
	}
	t.Logf("%d rounds, %d ops (%d ambiguous, %d failed), faults: %s",
		rounds, total.Ops, total.Ambiguous, total.Failed, px.Stats().String())
	if total.Ops == 0 {
		t.Fatal("chaos rounds recorded no operations")
	}

	// The server must have survived: fault-free burst, then clean drain.
	dc, err := client.Dial(backend)
	if err != nil {
		t.Fatal(err)
	}
	h := dc.NewHandle()
	for i := uint64(2); i < 130; i++ {
		h.Insert(i, i)
	}
	if err := dc.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("post-chaos drain: %v", err)
	}
}
