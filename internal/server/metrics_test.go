package server

// Observability tests: the remote METRICS smoke test (real TCP loopback
// through internal/client, like every test here), teardown-cause
// counting and logging, the slow-op trace hook, and the MetricsDump
// debug view.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// waitCond polls f for up to a second — teardown accounting runs on the
// connection's own goroutine, so tests must tolerate a short lag.
func waitCond(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRemoteMetrics is the loopback smoke test: run a mixed workload,
// fetch METRICS through the client, and check the counters, gauges and
// per-op histograms line up with the traffic.
func TestRemoteMetrics(t *testing.T) {
	s, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	const ops = 200
	for i := uint64(1); i <= ops; i++ {
		h.Insert(i, i*10)
	}
	for i := uint64(1); i <= ops; i++ {
		if v, ok := h.Find(i); !ok || v != i*10 {
			t.Fatalf("Find(%d) = %d,%v", i, v, ok)
		}
	}
	keys := []uint64{1, 2, 3, 4, 5}
	vals := make([]uint64, len(keys))
	oks := make([]bool, len(keys))
	h.(interface {
		FindBatch(keys, vals []uint64, found []bool)
	}).FindBatch(keys, vals, oks)

	// A connection observes each op before it writes the reply, so the
	// counts have settled by now; the poll only bounds the wait if that
	// ever changes.
	var sm *client.ServerMetrics
	waitCond(t, "op histograms to record every acknowledged op", func() bool {
		var err error
		if sm, err = c.ServerMetrics(); err != nil {
			t.Fatal(err)
		}
		hist := func(name string) uint64 {
			if h := sm.Hists[name]; h != nil {
				return h.Count
			}
			return 0
		}
		return hist("op_put_ns") >= ops && hist("op_get_ns") >= ops && hist("op_mget_ns") >= 1
	})
	if got := sm.Hists["op_put_ns"].Count; got != ops {
		t.Errorf("op_put_ns count = %d, want %d", got, ops)
	}
	if got := sm.Hists["op_get_ns"].Count; got != ops {
		t.Errorf("op_get_ns count = %d, want %d", got, ops)
	}
	if got := sm.Hists["op_mget_ns"].Count; got != 1 {
		t.Errorf("op_mget_ns count = %d, want 1", got)
	}
	qw := sm.Hists["queue_wait_ns"]
	if qw == nil || qw.Count < 2*ops {
		t.Errorf("queue_wait_ns = %+v, want count >= %d", qw, 2*ops)
	}
	if p99 := sm.Hists["op_get_ns"].Quantile(0.99); p99 == 0 {
		t.Error("op_get_ns p99 = 0")
	}
	// ctrl handle + point handle at least; STATS from Dial already ran.
	if got := sm.Counters["accepted_conns_total"]; got < 2 {
		t.Errorf("accepted_conns_total = %d, want >= 2", got)
	}
	if got := sm.Gauges["open_conns"]; got < 2 {
		t.Errorf("open_conns = %d, want >= 2", got)
	}

	// The client recorded matching RTT histograms.
	rtt := c.RTT()
	if got := rtt["rtt_put_ns"].Count; got != ops {
		t.Errorf("rtt_put_ns count = %d, want %d", got, ops)
	}
	if rtt["rtt_get_ns"].Quantile(0.5) == 0 {
		t.Error("rtt_get_ns p50 = 0")
	}
	if _, ok := rtt["rtt_delete_ns"]; ok {
		t.Error("rtt_delete_ns present though no deletes ran")
	}

	// MetricsDump (the -debug endpoint's payload) agrees and marshals.
	d := s.MetricsDump()
	if d.Hosted != "occ" {
		t.Errorf("dump hosted %q", d.Hosted)
	}
	if d.Histograms["op_put_ns"].Count != ops {
		t.Errorf("dump op_put_ns count = %d", d.Histograms["op_put_ns"].Count)
	}
	if d.Histograms["op_get_ns"].P99Ns == 0 || d.Histograms["op_get_ns"].MeanNs == 0 {
		t.Error("dump op_get_ns percentiles empty")
	}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"op_get_ns"`, `"p99_ns"`, `"accepted_conns_total"`, `"open_conns"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("dump JSON missing %s", want)
		}
	}
}

// logSink collects Config.Logf lines for assertions.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) find(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.lines {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// TestTeardownCauses: a cleanly-closed peer counts as peer_closed, a
// framing violation counts as framing, and each teardown logs one
// structured line with its cause.
func TestTeardownCauses(t *testing.T) {
	var logs logSink
	s, err := New(testBuilder, "occ", 1<<16, Config{Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// Clean close.
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	nc.Close()
	waitCond(t, "peer_closed teardown", func() bool {
		return s.MetricsDump().Counters["teardown_peer_closed_total"] == 1
	})
	// teardown counts before it logs: wait for the line, don't assume it.
	waitCond(t, "peer_closed log line", func() bool { return logs.find("cause=peer_closed") })

	// Framing violation: an oversized frame length. The server answers
	// with an error frame, then closes.
	nc, err = net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [wire.HeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], wire.MaxFrame+1)
	binary.LittleEndian.PutUint64(hdr[4:12], 77)
	hdr[12] = wire.OpGet
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "framing teardown", func() bool {
		return s.MetricsDump().Counters["teardown_framing_total"] == 1
	})
	nc.Close()
	waitCond(t, "framing log line", func() bool { return logs.find("cause=framing") })

	d := s.MetricsDump()
	if got := d.Counters["accepted_conns_total"]; got != 2 {
		t.Errorf("accepted_conns_total = %d, want 2", got)
	}
	waitCond(t, "conns gauge drain", func() bool {
		return s.MetricsDump().Gauges["open_conns"] == 0
	})
}

// TestDecodeErrorCounter: malformed-but-delimited frames keep the
// connection alive and bump decode_errors_total; reserved keys bump
// key_rejects_total.
func TestDecodeErrorCounter(t *testing.T) {
	s, c := startServer(t, "occ", 1<<16)
	nc, err := net.Dial("tcp", s.l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Unknown opcode: delimited, so answered with RespError in-stream.
	frame := make([]byte, wire.HeaderLen)
	binary.LittleEndian.PutUint32(frame[:4], wire.HeaderLen-4)
	binary.LittleEndian.PutUint64(frame[4:12], 9)
	frame[12] = 0x7F
	if _, err := nc.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "decode error counter", func() bool {
		return s.MetricsDump().Counters["decode_errors_total"] == 1
	})

	// Reserved key via the real client: panics client-side, counted
	// server-side.
	h := c.NewHandle()
	func() {
		defer func() { recover() }()
		h.Find(0)
	}()
	waitCond(t, "key reject counter", func() bool {
		return s.MetricsDump().Counters["key_rejects_total"] == 1
	})
}

// TestSlowOpTrace: with TraceSlow set to one nanosecond every op is
// slow, so a point op must produce a trace line naming its opcode.
func TestSlowOpTrace(t *testing.T) {
	var logs logSink
	s, err := New(testBuilder, "occ", 1<<16, Config{Logf: logs.logf, TraceSlow: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := client.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h := c.NewHandle()
	h.Insert(42, 1)
	waitCond(t, "slow-op trace line", func() bool {
		return logs.find("slow-op op=put")
	})
}

// TestMetricsStreamKeys: a fresh server streams every instrument —
// zero-count histograms included — and MetricsDump exports exactly the
// same names. The lists are the stable METRICS vocabulary that
// abtree-top and the ledger read.
func TestMetricsStreamKeys(t *testing.T) {
	s, c := startServer(t, "occ", 1<<16)
	counters := []string{
		"accepted_conns_total", "decode_errors_total", "key_rejects_total",
		"rate_limited_total", "repl_acks_total", "failovers_total",
		"teardown_peer_closed_total", "teardown_read_error_total", "teardown_framing_total",
		"teardown_write_error_total", "teardown_write_timeout_total", "teardown_server_closed_total",
		"teardown_idle_timeout_total", "teardown_max_conns_reject_total", "teardown_drained_total",
	}
	gauges := []string{"open_conns", "inflight_ops", "repl_seq"}
	hists := []string{
		"queue_wait_ns", "repl_commit_wait_ns", "repl_ship_ack_ns",
		"op_get_ns", "op_put_ns", "op_delete_ns", "op_mget_ns", "op_mput_ns", "op_mdelete_ns",
		"op_scan_ns", "op_snapscan_ns", "op_stats_ns", "op_open_ns", "op_metrics_ns",
		"op_replicate_ns", "op_promote_ns",
	}
	if n := len(counters) + len(gauges) + len(hists); n != metricsItemCount {
		t.Fatalf("test vocabulary has %d names, metricsItemCount is %d", n, metricsItemCount)
	}
	sm, err := c.ServerMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sm.Counters) + len(sm.Gauges) + len(sm.Hists); n != metricsItemCount {
		t.Errorf("METRICS streamed %d items, want %d", n, metricsItemCount)
	}
	d := s.MetricsDump()
	if len(d.Counters) != len(counters) || len(d.Gauges) != len(gauges) || len(d.Histograms) != len(hists) {
		t.Errorf("MetricsDump has %d/%d/%d counters/gauges/histograms, want %d/%d/%d",
			len(d.Counters), len(d.Gauges), len(d.Histograms), len(counters), len(gauges), len(hists))
	}
	for _, name := range counters {
		if _, ok := sm.Counters[name]; !ok {
			t.Errorf("METRICS lacks counter %s", name)
		}
		if _, ok := d.Counters[name]; !ok {
			t.Errorf("MetricsDump lacks counter %s", name)
		}
	}
	for _, name := range gauges {
		if _, ok := sm.Gauges[name]; !ok {
			t.Errorf("METRICS lacks gauge %s", name)
		}
		if _, ok := d.Gauges[name]; !ok {
			t.Errorf("MetricsDump lacks gauge %s", name)
		}
	}
	for _, name := range hists {
		if sm.Hists[name] == nil {
			t.Errorf("METRICS lacks histogram %s", name)
		}
		if _, ok := d.Histograms[name]; !ok {
			t.Errorf("MetricsDump lacks histogram %s", name)
		}
	}
	// Never-written histograms still stream, as empty snapshots.
	for _, name := range []string{"op_scan_ns", "op_promote_ns", "repl_commit_wait_ns"} {
		if h := sm.Hists[name]; h == nil || h.Count != 0 || h.Sum != 0 {
			t.Errorf("%s = %+v, want a streamed zero-count histogram", name, h)
		}
	}
}

// TestRTTSnapshotsOnlyRecordedOps: Client.RTT returns the ops that ran
// and allocates a snapshot for those alone — not one per RTT histogram.
func TestRTTSnapshotsOnlyRecordedOps(t *testing.T) {
	_, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	h.Find(1)
	rtt := c.RTT()
	if len(rtt) != 1 || rtt["rtt_get_ns"] == nil || rtt["rtt_get_ns"].Count != 1 {
		t.Fatalf("RTT after one GET = %v, want only rtt_get_ns with count 1", rtt)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		c.RTT()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := 2 * uint64(unsafe.Sizeof(metrics.Snapshot{})); per > limit {
		t.Errorf("RTT allocates %d B per call with one op recorded, want <= %d", per, limit)
	}
}
