package server

// The server's observability surface (the ISSUE 6 tentpole): striped
// internal/metrics instruments recorded on the hot path for ~a few ns
// and 0 allocs (workers hint with their creation index; TestAllocsRemote*
// still holds end to end), snapshotted three ways — the wire METRICS
// operation (one streamed frame per instrument), Server.MetricsDump
// (the -debug HTTP endpoint's expvar-style JSON), and the structured
// teardown/slow-op log lines.

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Per-opcode latency slots (opLat indexes).
const (
	slotGet = iota
	slotPut
	slotDelete
	slotMGet
	slotMPut
	slotMDelete
	slotScan
	slotSnapScan
	slotStats
	slotOpen
	slotMetrics
	slotReplicate
	slotPromote
	numOpSlots
)

var slotNames = [numOpSlots]string{
	"op_get_ns", "op_put_ns", "op_delete_ns",
	"op_mget_ns", "op_mput_ns", "op_mdelete_ns",
	"op_scan_ns", "op_snapscan_ns",
	"op_stats_ns", "op_open_ns", "op_metrics_ns",
	"op_replicate_ns", "op_promote_ns",
}

// slotFor maps a validated request opcode to its latency slot (-1 for
// opcodes the decoder would have rejected).
func slotFor(op byte) int {
	switch op {
	case wire.OpGet:
		return slotGet
	case wire.OpPut:
		return slotPut
	case wire.OpDelete:
		return slotDelete
	case wire.OpMGet:
		return slotMGet
	case wire.OpMPut:
		return slotMPut
	case wire.OpMDelete:
		return slotMDelete
	case wire.OpScan:
		return slotScan
	case wire.OpSnapScan:
		return slotSnapScan
	case wire.OpStats:
		return slotStats
	case wire.OpOpen:
		return slotOpen
	case wire.OpMetrics:
		return slotMetrics
	case wire.OpReplicate:
		return slotReplicate
	case wire.OpPromote:
		return slotPromote
	}
	return -1
}

// Connection-teardown causes (teardowns indexes). Every srvConn dies
// for exactly one of these, counted and logged once — the satellite
// fix for silent write-deadline expiries and framing-violation closes.
const (
	causePeerClosed = iota
	causeReadError
	causeFraming
	causeWriteError
	causeWriteTimeout
	causeServerClosed
	causeIdleTimeout // connection idled past Config.IdleTimeout
	causeMaxConns    // rejected at accept with BUSY (Config.MaxConns)
	causeDrained     // closed by Shutdown after its responses flushed
	numCauses
)

var causeNames = [numCauses]string{
	"peer_closed", "read_error", "framing",
	"write_error", "write_timeout", "server_closed",
	"idle_timeout", "max_conns_reject", "drained",
}

// srvMetrics is the server's instrument set. Zero value ready; lives
// inline in Server.
type srvMetrics struct {
	opLat      [numOpSlots]metrics.Histogram // service latency per opcode; a scan's includes the writes of its full cuts
	queueWait  metrics.Histogram             // frame read to serve start (decode, validation, rate limit)
	commitWait metrics.Histogram             // primary: mutation blocked on waitCommitted
	shipAck    metrics.Histogram             // primary: REPLICATE ship to REPL_ACK, per round trip with entries

	inFlight metrics.Gauge // ops currently executing
	conns    metrics.Gauge // registered connections

	accepted    metrics.Counter // connections ever accepted
	decodeErrs  metrics.Counter // malformed-but-delimited frames answered with RespError
	keyRejects  metrics.Counter // reserved-sentinel keys rejected at the boundary
	rateLimited metrics.Counter // requests answered with BUSY by the per-connection token bucket
	replAcks    metrics.Counter // follower acks absorbed by this primary's senders
	failovers   metrics.Counter // PROMOTE ops that actually flipped this server to primary

	teardowns [numCauses]metrics.Counter
}

// metricsItemCount is the fixed number of instruments a METRICS
// response streams (the last one carries the MetricsLast flag).
const metricsItemCount = 6 + numCauses + 3 + 3 + numOpSlots

// eachCounter visits every counter in the stable stream order.
func (s *Server) eachCounter(f func(name string, v uint64)) {
	m := &s.metrics
	f("accepted_conns_total", m.accepted.Load())
	f("decode_errors_total", m.decodeErrs.Load())
	f("key_rejects_total", m.keyRejects.Load())
	f("rate_limited_total", m.rateLimited.Load())
	f("repl_acks_total", m.replAcks.Load())
	f("failovers_total", m.failovers.Load())
	for i := range m.teardowns {
		f("teardown_"+causeNames[i]+"_total", m.teardowns[i].Load())
	}
}

// eachGauge visits every gauge in the stable stream order.
func (s *Server) eachGauge(f func(name string, v int64)) {
	m := &s.metrics
	f("open_conns", m.conns.Load())
	f("inflight_ops", m.inFlight.Load())
	if r := s.repl; r != nil {
		f("repl_seq", int64(r.replSeq()))
	} else {
		f("repl_seq", 0)
	}
}

// eachHist visits every histogram in the stable stream order.
func (s *Server) eachHist(f func(name string, h *metrics.Histogram)) {
	m := &s.metrics
	f("queue_wait_ns", &m.queueWait)
	f("repl_commit_wait_ns", &m.commitWait)
	f("repl_ship_ack_ns", &m.shipAck)
	for i := range m.opLat {
		f(slotNames[i], &m.opLat[i])
	}
}

// HistStats summarizes one latency histogram for MetricsDump (the
// -debug endpoint's JSON; quantiles carry the histogram's ~3% bucket
// error).
type HistStats struct {
	Count  uint64  `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  uint64  `json:"p50_ns"`
	P90Ns  uint64  `json:"p90_ns"`
	P99Ns  uint64  `json:"p99_ns"`
	P999Ns uint64  `json:"p999_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// MetricsDump is a point-in-time JSON-marshalable view of every server
// instrument — what cmd/abtree-server's -debug listener serves at
// /debug/metrics.
type MetricsDump struct {
	Hosted     string               `json:"hosted"`
	Gen        uint64               `json:"generation"`
	Counters   map[string]uint64    `json:"counters"`
	Gauges     map[string]int64     `json:"gauges"`
	Histograms map[string]HistStats `json:"histograms"`
}

// MetricsDump snapshots every instrument. Snapshot-rate only (it merges
// every stripe of every histogram); the hot path never calls it.
func (s *Server) MetricsDump() MetricsDump {
	h := s.cur.Load()
	d := MetricsDump{
		Hosted:     h.name,
		Gen:        h.gen,
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistStats),
	}
	s.eachCounter(func(name string, v uint64) { d.Counters[name] = v })
	s.eachGauge(func(name string, v int64) { d.Gauges[name] = v })
	var snap metrics.Snapshot
	s.eachHist(func(name string, h *metrics.Histogram) {
		h.Snapshot(&snap)
		d.Histograms[name] = HistStats{
			Count:  snap.Count,
			MeanNs: snap.Mean(),
			P50Ns:  snap.Quantile(0.50),
			P90Ns:  snap.Quantile(0.90),
			P99Ns:  snap.Quantile(0.99),
			P999Ns: snap.Quantile(0.999),
			MaxNs:  snap.Max(),
		}
	})
	return d
}

// serveMetrics streams the instrument set as RespMetrics frames in
// stable order, flagging the final one, through the output cut (a dead
// connection fails each cut at once). Allocation here is fine
// (observability rate, not op rate) but the histogram snapshot scratch
// is per-worker anyway, made by the worker's first METRICS.
func (w *worker) serveMetrics(c *srvConn, id uint64) {
	i := 0
	last := func() bool {
		i++
		return i == metricsItemCount
	}
	w.s.eachCounter(func(name string, v uint64) {
		c.out = wire.AppendMetricsCounter(c.out, id, name, v, last())
		c.cut()
	})
	w.s.eachGauge(func(name string, v int64) {
		c.out = wire.AppendMetricsGauge(c.out, id, name, v, last())
		c.cut()
	})
	if w.msnap == nil {
		w.msnap = new(metrics.Snapshot)
	}
	w.s.eachHist(func(name string, h *metrics.Histogram) {
		h.Snapshot(w.msnap)
		c.out = wire.AppendMetricsHist(c.out, id, name, w.msnap, last())
		c.cut()
	})
}

// observe records one served request's metrics, its trace spans when
// the request carried a trace id, and, when configured, the slow-op
// log line. now is the serve start stamp.
func (w *worker) observe(req *request, now time.Time) {
	m := &w.s.metrics
	qw := now.Sub(req.enq)
	if qw < 0 {
		qw = 0
	}
	m.queueWait.Record(w.idx, uint64(qw))
	dur := time.Since(now)
	if dur < 0 {
		dur = 0
	}
	if slot := slotFor(req.Op); slot >= 0 {
		m.opLat[slot].Record(w.idx, uint64(dur))
	}
	if req.traceID != 0 {
		tr := w.s.tracer
		tr.Record(w.idx, trace.Span{
			TraceID: req.traceID, Kind: trace.KindQueueWait, Op: req.Op,
			Start: uint64(req.enq.UnixNano()), Dur: uint64(qw),
		})
		tr.Record(w.idx, trace.Span{
			TraceID: req.traceID, Kind: trace.KindService, Op: req.Op,
			Start: uint64(now.UnixNano()), Dur: uint64(dur),
		})
		tr.RecordTail(req.Op, req.traceID, uint64(qw+dur))
	}
	if ts := w.s.traceSlow; ts > 0 && dur >= ts && w.s.logf != nil {
		w.s.logf("server: slow-op op=%s id=%d trace=%016x dur=%s queue_wait=%s commit_wait=%s remote=%s",
			wire.OpName(req.Op), req.ID, req.traceID, dur, qw, req.commitWait, w.c.remote)
	}
}
