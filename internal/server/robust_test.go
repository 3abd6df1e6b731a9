package server

// Protocol robustness: malformed, truncated and hostile byte streams
// must produce clean errors — never a panic, a stream desync, or a
// stranded connection goroutine. These tests speak raw TCP, bypassing the
// client's well-formed encoders.

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// startRawServer returns a server address to abuse plus a dialer for
// raw connections.
func startRawServer(t *testing.T) (*Server, string) {
	t.Helper()
	s, err := New(testBuilder, "occ", 1<<16, Config{})
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

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// readResp reads one response frame from a raw connection.
func readResp(t *testing.T, nc net.Conn) (id uint64, op byte, payload []byte) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [wire.HeaderLen]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		t.Fatalf("reading response header: %v", err)
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	if length < 9 || length > wire.MaxFrame {
		t.Fatalf("bad response length %d", length)
	}
	payload = make([]byte, length-9)
	if _, err := io.ReadFull(nc, payload); err != nil {
		t.Fatalf("reading response payload: %v", err)
	}
	return binary.LittleEndian.Uint64(hdr[4:12]), hdr[12], payload
}

// checkServes verifies the server still completes a full round trip.
func checkServes(t *testing.T, addr string) {
	t.Helper()
	nc := rawDial(t, addr)
	var b []byte
	b = wire.AppendPoint(b, 99, wire.OpPut, 1234, 5678)
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	id, op, payload := readResp(t, nc)
	if id != 99 || op != wire.RespPoint {
		t.Fatalf("post-abuse PUT got id=%d op=%#x payload=%q", id, op, payload)
	}
}

// TestRobustTruncatedFrames: a connection that dies mid-header or
// mid-payload must be torn down without disturbing the server.
func TestRobustTruncatedFrames(t *testing.T) {
	_, addr := startRawServer(t)
	for _, cut := range [][]byte{
		{},                 // nothing
		{0x09},             // partial length
		{0x09, 0, 0, 0, 1}, // full length, partial id
		wire.AppendPoint(nil, 1, wire.OpPut, 10, 20)[:wire.HeaderLen+3], // partial payload
	} {
		nc := rawDial(t, addr)
		if len(cut) > 0 {
			if _, err := nc.Write(cut); err != nil {
				t.Fatal(err)
			}
		}
		nc.Close()
	}
	checkServes(t, addr)
}

// TestRobustOversizedLength: a frame length beyond wire.MaxFrame is a
// framing violation — the server answers with an error and closes the
// connection instead of trying to buffer it.
func TestRobustOversizedLength(t *testing.T) {
	_, addr := startRawServer(t)
	for _, length := range []uint32{0, 5, wire.MaxFrame + 1, 1 << 30} {
		nc := rawDial(t, addr)
		var hdr [wire.HeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[:4], length)
		binary.LittleEndian.PutUint64(hdr[4:12], 77)
		hdr[12] = wire.OpGet
		if _, err := nc.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		id, op, _ := readResp(t, nc)
		if id != 77 || op != wire.RespError {
			t.Fatalf("length %d: got id=%d op=%#x, want RespError for id 77", length, id, op)
		}
		// The connection must now be closed by the server.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("length %d: connection still open after framing violation (read err %v)", length, err)
		}
	}
	checkServes(t, addr)
}

// TestRobustUnknownOpcode: an unknown opcode in a well-framed request
// yields a RespError echoing the id, and the stream stays aligned — the
// next valid request on the same connection completes.
func TestRobustUnknownOpcode(t *testing.T) {
	_, addr := startRawServer(t)
	nc := rawDial(t, addr)
	var b []byte
	// Hand-build a frame with opcode 0x7F and an arbitrary payload.
	b = append(b, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, 31337)
	b = append(b, 0x7F)
	b = append(b, 1, 2, 3, 4, 5)
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	b = wire.AppendPoint(b, 31338, wire.OpPut, 5, 55) // pipelined follow-up
	if _, err := nc.Write(b); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]byte{}
	for i := 0; i < 2; i++ {
		id, op, _ := readResp(t, nc)
		got[id] = op
	}
	if got[31337] != wire.RespError {
		t.Fatalf("unknown opcode: got op %#x, want RespError", got[31337])
	}
	if got[31338] != wire.RespPoint {
		t.Fatalf("follow-up PUT after unknown opcode: got op %#x, want RespPoint", got[31338])
	}
}

// TestRobustMalformedPayloads: well-framed requests with wrong payload
// sizes (short point ops, batch counts that disagree with the payload,
// batch counts above MaxBatch) each earn a RespError and leave the
// stream usable.
func TestRobustMalformedPayloads(t *testing.T) {
	_, addr := startRawServer(t)
	frame := func(op byte, payload []byte) []byte {
		var b []byte
		b = append(b, 0, 0, 0, 0)
		b = binary.LittleEndian.AppendUint64(b, 1)
		b = append(b, op)
		b = append(b, payload...)
		binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
		return b
	}
	huge := make([]byte, 4+8)
	binary.LittleEndian.PutUint32(huge, wire.MaxBatch+1)
	cases := [][]byte{
		frame(wire.OpGet, []byte{1, 2, 3}),                             // short key
		frame(wire.OpPut, make([]byte, 8)),                             // missing value
		frame(wire.OpScan, make([]byte, 7)),                            // short bounds
		frame(wire.OpMGet, []byte{9, 0, 0, 0, 1}),                      // count 9, one byte of keys
		frame(wire.OpMGet, huge),                                       // count above MaxBatch
		frame(wire.OpMPut, []byte{1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}), // keys without vals
		frame(wire.OpStats, []byte{1}),                                 // STATS with payload
		frame(wire.OpOpen, []byte{1, 2, 3}),                            // OPEN without key range
		wire.AppendPoint(nil, 1, wire.OpGet, 0, 0),                     // reserved key 0
		wire.AppendPoint(nil, 1, wire.OpPut, ^uint64(0), 1),            // reserved key 2^64-1
		wire.AppendBatch(nil, 1, wire.OpMGet, []uint64{5, 0, 7}, nil),  // reserved key in batch
	}
	for i, c := range cases {
		nc := rawDial(t, addr)
		if _, err := nc.Write(c); err != nil {
			t.Fatal(err)
		}
		if _, op, _ := readResp(t, nc); op != wire.RespError {
			t.Fatalf("case %d: got op %#x, want RespError", i, op)
		}
		// Stream stays aligned: a valid request on the same conn works.
		var b []byte
		b = wire.AppendPoint(b, 2, wire.OpGet, 1, 0)
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
		if _, op, _ := readResp(t, nc); op != wire.RespPoint {
			t.Fatalf("case %d: follow-up GET got op %#x", i, op)
		}
	}
}

// TestRobustNoWorkerLeak: connections that vanish with requests in
// flight — including mid-stream scan consumers — must not strand their
// goroutines or handles; the server must still complete concurrent
// work afterwards.
func TestRobustNoWorkerLeak(t *testing.T) {
	_, addr := startRawServer(t)
	// Preload enough keys that a scan response spans many chunks (the
	// worker will be mid-stream when the connection dies).
	{
		nc := rawDial(t, addr)
		var b []byte
		for k := uint64(1); k <= 20_000; k++ {
			b = wire.AppendPoint(b[:0], k, wire.OpPut, k, k)
			if _, err := nc.Write(b); err != nil {
				t.Fatal(err)
			}
			readResp(t, nc)
		}
		nc.Close()
	}
	for i := 0; i < 40; i++ {
		nc := rawDial(t, addr)
		var b []byte
		// A full-range scan (many chunks) plus pipelined point ops, then
		// close without reading a single byte: the connection's writes
		// must fail and end its goroutine.
		b = wire.AppendScan(b, 1, false, 1, 1<<60)
		for j := uint64(0); j < 64; j++ {
			b = wire.AppendPoint(b, 2+j, wire.OpGet, j, 0)
		}
		if _, err := nc.Write(b); err != nil {
			t.Fatal(err)
		}
		nc.Close()
	}
	// The server must still serve: run 4 concurrent clients doing real
	// work with a deadline.
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				done <- err
				return
			}
			defer nc.Close()
			var b []byte
			for i := uint64(0); i < 500; i++ {
				b = wire.AppendPoint(b[:0], i, wire.OpGet, i, 0)
				if _, err := nc.Write(b); err != nil {
					done <- err
					return
				}
				nc.SetReadDeadline(time.Now().Add(10 * time.Second))
				var hdr [wire.HeaderLen]byte
				if _, err := io.ReadFull(nc, hdr[:]); err != nil {
					done <- err
					return
				}
				n := binary.LittleEndian.Uint32(hdr[:4]) - 9
				if _, err := io.ReadFull(nc, make([]byte, n)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("post-abuse client %d: %v", w, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("server stopped serving after connection abuse")
		}
	}
}

// TestWriteTimeoutTearsDownStalledPeer: the stalled-peer backstop. A
// peer pipelines scans whose responses far exceed what the socket
// buffers hold and never reads a byte; the per-write deadline
// (shortened from its one-minute production value) must fire, the
// connection must die with cause write_timeout — its goroutine, parked
// writing a chunk, comes free — and the next client is served. How long
// the server takes to fill the buffers and stall depends on the box's
// load, so the wait is on progress, not on the wall clock: it fails
// only once 10 s pass with no scan finished and no teardown, which the
// 50 ms deadline never allows once the write has stalled.
func TestWriteTimeoutTearsDownStalledPeer(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.writeTimeout = 50 * time.Millisecond // before Start: no connection exists yet
	a, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr := a.String()

	const n = 20_000 // one full scan = 20k pairs = 320 KB of chunks
	{
		nc := rawDial(t, addr)
		keys := make([]uint64, wire.MaxBatch)
		for base := uint64(0); base < n; base += wire.MaxBatch {
			for i := range keys {
				keys[i] = base + uint64(i) + 1
			}
			if _, err := nc.Write(wire.AppendBatch(nil, base, wire.OpMPut, keys, keys)); err != nil {
				t.Fatal(err)
			}
			readResp(t, nc)
		}
		nc.Close()
	}

	stalled := rawDial(t, addr)
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10) // keep the kernel from absorbing the stream
	var b []byte
	const scans = 64 // ~20 MB of responses owed
	for id := uint64(1); id <= scans; id++ {
		b = wire.AppendScan(b, id, false, 1, 1<<60)
	}
	if _, err := stalled.Write(b); err != nil {
		t.Fatal(err)
	}
	scansServed := func() uint64 { return s.MetricsDump().Histograms["op_scan_ns"].Count }
	waitProgress(t, "write_timeout teardown", 10*time.Second, scansServed, func() bool {
		return s.MetricsDump().Counters["teardown_write_timeout_total"] == 1
	})
	checkServes(t, addr)
}

// waitProgress polls cond until it holds, failing only once progress
// has stood still for stall: a loaded box may take long to get there,
// but a wait whose progress has stopped is stuck.
func waitProgress(t *testing.T, what string, stall time.Duration, progress func() uint64, cond func() bool) {
	t.Helper()
	last, since := progress(), time.Now()
	for !cond() {
		if p := progress(); p != last {
			last, since = p, time.Now()
		} else if time.Since(since) > stall {
			t.Fatalf("waiting for %s: no progress for %v (at %d)", what, stall, p)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
