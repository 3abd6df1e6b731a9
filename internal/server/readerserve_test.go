package server

// Lone requests served on their connection's reader: a GET on a
// standalone server and every REPLICATE on a follower bypass the worker
// pool, so a pool parked on a stalled peer delays neither. Close waits
// for the readers as it does for the pool.

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
// the connection's write queue.
const stalledKeys = 600_000

// stallPool sends one full snapshot scan on a connection that reads
// nothing, then waits until a worker has taken it: that worker stays
// parked, publishing chunks nobody drains, until the write deadline
// tears the connection down.
func stallPool(t *testing.T, s *Server, addr string) {
	t.Helper()
	stalled := rawDial(t, addr)
	stalled.(*net.TCPConn).SetReadBuffer(4 << 10)
	if _, err := stalled.Write(wire.AppendScan(nil, 1, true, 1, 1<<60)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a worker to take the scan", func() bool {
		g := s.MetricsDump().Gauges
		return g["inflight_ops"] == 1 && g["work_queue_depth"] == 0
	})
}

// TestLoneGetBypassesParkedPool: with the only worker parked on a
// stalled scan consumer, a lone GET on another connection is answered
// at once, on its reader, not after the write deadline frees the
// worker.
func TestLoneGetBypassesParkedPool(t *testing.T) {
	s, err := New(prefilled(stalledKeys), "occ", stalledKeys, Config{Workers: 1})
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
		t.Fatalf("lone GET answered after %v behind a parked worker, want < 1s", el)
	}
	if id != 7 || op != wire.RespPoint {
		t.Fatalf("GET got id=%d op=%#x payload=%q", id, op, payload)
	}
	if n := s.MetricsDump().Counters["reader_served_total"]; n != 1 {
		t.Fatalf("reader_served_total = %d, want 1", n)
	}
}

// TestFollowerAcksBesideParkedPool: a follower's only worker is parked
// on a stalled scan consumer; a PUT through the primary still commits at
// once, because the follower applies and acknowledges REPLICATE on the
// sink connection's reader.
func TestFollowerAcksBesideParkedPool(t *testing.T) {
	f, err := New(prefilled(stalledKeys), "occ", stalledKeys, Config{Workers: 1, Follower: true})
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
	_, pa := startServerCfg(t, "occ", 1<<32, Config{Workers: 2, Followers: []string{fa.String()}})
	pc, err := client.Dial(pa)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	h := pc.NewHandle()
	h.Insert(stalledKeys+1, 1) // the sender is connected and caught up
	stallPool(t, f, fa.String())

	served := f.MetricsDump().Counters["reader_served_total"]
	t0 := time.Now()
	if _, ok := h.Insert(stalledKeys+2, 2); !ok {
		t.Fatal("PUT of a fresh key did not insert")
	}
	if el := time.Since(t0); el >= time.Second {
		t.Fatalf("replicated PUT committed after %v behind the follower's parked worker, want < 1s", el)
	}
	if n := f.MetricsDump().Counters["reader_served_total"]; n <= served {
		t.Fatalf("follower reader_served_total %d -> %d: REPLICATE not served on the reader", served, n)
	}
}

// slowInserts delays every insert by a millisecond before applying it,
// so a reader streaming PUTs is nearly always inside one when Close is
// called.
type slowInserts struct{ dict.Dict }

type slowInsertHandle struct{ dict.Handle }

func (d slowInserts) NewHandle() dict.Handle { return slowInsertHandle{d.Dict.NewHandle()} }

func (h slowInsertHandle) Insert(k, v uint64) (uint64, bool) {
	time.Sleep(time.Millisecond)
	return h.Handle.Insert(k, v)
}

// TestCloseWaitsForReaders: Close returns only once no request runs on
// any reader. A peer streams PUTs that the reader serves itself; after
// Close returns mid-stream, the tree no longer changes and passes
// Validate. With the readers left out of the server's wait group, the
// key sum moves after Close in most rounds.
func TestCloseWaitsForReaders(t *testing.T) {
	for round := 0; round < 5; round++ {
		var tree *core.Tree
		build := func(string, uint64) dict.Dict {
			tree = core.New()
			return slowInserts{treedict.Core{T: tree}}
		}
		s, err := New(build, "occ", 1<<20, Config{Workers: 1})
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
		waitFor(t, "PUTs served on the reader", func() bool {
			return s.MetricsDump().Counters["reader_served_total"] >= 20
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
