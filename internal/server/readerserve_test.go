package server

// Every request is served on its connection's own goroutine: a
// connection parked on a stalled peer delays neither a GET on another
// connection nor a follower's REPLICATE. Close waits for every
// connection's goroutine.

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/treedict"
	"repro/internal/wire"
)

// prefilled builds OCC-ABtrees holding keys 1..n, filled in process
// before they are served.
func prefilled(n uint64) Builder {
	return func(string, uint64) dict.Dict {
		t := core.New()
		h := t.NewThread()
		for k := uint64(1); k <= n; k++ {
			h.Insert(k, k)
		}
		return treedict.Core{T: t}
	}
}

// stalledKeys is enough keys that one full snapshot scan (16 B a pair)
// outgrows the server's socket send buffer (4 MB at most on Linux) plus
// the connection's 64 KB output cut.
const stalledKeys = 600_000

// stallPool sends one full snapshot scan on a connection that reads
// nothing, then waits until the server is serving it: that connection
// stays parked, writing chunks nobody drains, until the write deadline
// tears it down.
func stallPool(t *testing.T, s *Server, addr string) {
	t.Helper()
	stalled := rawDial(t, addr)
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := stalled.Write(wire.AppendScan(nil, 1, true, 1, 1<<60)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the scan to be served", func() bool {
		return s.MetricsDump().Gauges["inflight_ops"] == 1
	})
}

// TestLoneGetBypassesParkedPool: with one connection parked on a
// stalled scan consumer, a lone GET on another connection is answered
// at once, on its own goroutine, not after the write deadline frees the
// parked one.
func TestLoneGetBypassesParkedPool(t *testing.T) {
	s, err := New(prefilled(stalledKeys), "occ", stalledKeys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.writeTimeout = 3 * time.Second // before Start: no connection exists yet
	a, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr := a.String()
	stallPool(t, s, addr)

	nc := rawDial(t, addr)
	t0 := time.Now()
	if _, err := nc.Write(wire.AppendPoint(nil, 7, wire.OpGet, 42, 0)); err != nil {
		t.Fatal(err)
	}
	id, op, payload := readResp(t, nc)
	if el := time.Since(t0); el >= time.Second {
		t.Fatalf("lone GET answered after %v beside a parked connection, want < 1s", el)
	}
	if id != 7 || op != wire.RespPoint {
		t.Fatalf("GET got id=%d op=%#x payload=%q", id, op, payload)
	}
}

// TestFollowerAcksBesideParkedPool: a follower connection is parked on
// a stalled scan consumer; a PUT through the primary still commits at
// once, because the follower applies and acknowledges REPLICATE on the
// sink connection's own goroutine.
func TestFollowerAcksBesideParkedPool(t *testing.T) {
	f, err := New(prefilled(stalledKeys), "occ", stalledKeys, Config{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	f.writeTimeout = 3 * time.Second
	fa, err := f.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	// The primary starts empty: only the keys this test writes are
	// shipped, and the follower holds none of them.
	_, pa := startServerCfg(t, "occ", 1<<32, Config{Followers: []string{fa.String()}})
	pc, err := client.Dial(pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	h := pc.NewHandle()
	h.Insert(stalledKeys+1, 1) // the sender is connected and caught up
	stallPool(t, f, fa.String())

	t0 := time.Now()
	if _, ok := h.Insert(stalledKeys+2, 2); !ok {
		t.Fatal("PUT of a fresh key did not insert")
	}
	if el := time.Since(t0); el >= time.Second {
		t.Fatalf("replicated PUT committed after %v beside the follower's parked connection, want < 1s", el)
	}
}

// slowInserts delays every insert by a millisecond before applying it,
// so a connection streaming PUTs is nearly always inside one when Close
// is called.
type slowInserts struct{ dict.Dict }

type slowInsertHandle struct{ dict.Handle }

func (d slowInserts) NewHandle() dict.Handle { return slowInsertHandle{d.Dict.NewHandle()} }

func (h slowInsertHandle) Insert(k, v uint64) (uint64, bool) {
	time.Sleep(time.Millisecond)
	return h.Handle.Insert(k, v)
}

// TestCloseWaitsForReaders: Close returns only once no request runs on
// any connection. A peer streams PUTs; after Close returns mid-stream,
// the tree no longer changes and passes Validate. With the connections
// left out of the server's wait group, the key sum moves after Close in
// most rounds.
func TestCloseWaitsForReaders(t *testing.T) {
	for round := 0; round < 5; round++ {
		var tree *core.Tree
		build := func(string, uint64) dict.Dict {
			tree = core.New()
			return slowInserts{treedict.Core{T: tree}}
		}
		s, err := New(build, "occ", 1<<20, Config{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nc := rawDial(t, a.String())
		go io.Copy(io.Discard, nc)
		go func() {
			var b []byte
			for k := uint64(1); k < 1<<20; k++ {
				b = wire.AppendPoint(b[:0], k, wire.OpPut, k, k)
				if _, err := nc.Write(b); err != nil {
					return
				}
			}
		}()
		waitFor(t, "PUTs served", func() bool {
			return s.MetricsDump().Histograms["op_put_ns"].Count >= 20
		})
		s.Close()
		before := tree.KeySum()
		time.Sleep(20 * time.Millisecond)
		if after := tree.KeySum(); after != before {
			t.Fatalf("round %d: key sum moved after Close returned: %d -> %d", round, before, after)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestPipelinedFramesServedInArrivalOrder: one connection pipelines
// 2000 × (MPUT {k}, DELETE k) without waiting for a reply; the server
// serves a connection's frames in arrival order, so every DELETE finds
// the key the MPUT before it inserted.
func TestPipelinedFramesServedInArrivalOrder(t *testing.T) {
	_, addr := startServerCfg(t, "occ", 1<<16, Config{})
	nc := rawDial(t, addr)
	const pairs = 2000
	var b []byte
	for k := uint64(1); k <= pairs; k++ {
		b = wire.AppendBatch(b, 2*k-1, wire.OpMPut, []uint64{k}, []uint64{k})
		b = wire.AppendPoint(b, 2*k, wire.OpDelete, k, 0)
	}
	written := make(chan error, 1)
	go func() {
		_, err := nc.Write(b)
		written <- err
	}()
	missed := 0
	for i := 0; i < 2*pairs; i++ {
		id, op, payload := readResp(t, nc)
		if id%2 == 1 {
			if op != wire.RespBatch {
				t.Fatalf("MPUT id %d answered with op %#x: %q", id, op, payload)
			}
			continue
		}
		if op != wire.RespPoint {
			t.Fatalf("DELETE id %d answered with op %#x: %q", id, op, payload)
		}
		if _, ok, _, err := wire.DecodePoint(payload); err != nil {
			t.Fatal(err)
		} else if !ok {
			missed++
		}
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	if missed > 0 {
		t.Fatalf("%d of %d DELETEs did not find the key their MPUT inserted", missed, pairs)
	}
}
