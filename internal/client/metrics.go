package client

// Client-side observability: every handle, plain or mux, meters each
// operation through one meter — head sampling (Config.TraceEvery), the
// client span, and the round-trip time recorded into a per-op striped
// histogram shared by the whole Client (handles stripe by a per-handle
// hint, so concurrent workers never contend). ServerMetrics drains the
// server's METRICS stream into plain maps. Metering is one time.Now and
// one time.Since per op — the warmed remote point path stays 0
// allocs/op.

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Client-side RTT histogram slots.
const (
	copGet = iota
	copPut
	copDelete
	copMGet
	copMPut
	copMDelete
	copScan
	copSnapScan
	numClientOps
)

var copNames = [numClientOps]string{
	"rtt_get_ns", "rtt_put_ns", "rtt_delete_ns",
	"rtt_mget_ns", "rtt_mput_ns", "rtt_mdelete_ns",
	"rtt_scan_ns", "rtt_snapscan_ns",
}

// copFor maps a request opcode to its RTT slot (-1 for control ops,
// which are not per-op instrumented).
func copFor(op byte) int {
	switch op {
	case wire.OpGet:
		return copGet
	case wire.OpPut:
		return copPut
	case wire.OpDelete:
		return copDelete
	case wire.OpMGet:
		return copMGet
	case wire.OpMPut:
		return copMPut
	case wire.OpMDelete:
		return copMDelete
	case wire.OpScan:
		return copScan
	case wire.OpSnapScan:
		return copSnapScan
	}
	return -1
}

// rttHists is the Client's shared RTT instrument set.
type rttHists struct {
	h [numClientOps]metrics.Histogram
}

// meter is a handle's per-op instrumentation. Not safe for concurrent
// use: it belongs to one handle, like the handle itself.
type meter struct {
	c      *Client
	hint   int // this handle's histogram and trace stripe
	traceN int // ops since this handle's last head sample
}

// start stamps an operation and head-samples it: tid is a fresh trace
// id, or 0 — tracing off, the server never advertised CapTrace, or this
// op lost the 1-in-TraceEvery draw. 0 allocs.
func (m *meter) start() (t0 time.Time, tid uint64) {
	t0 = time.Now()
	c := m.c
	if c.cfg.TraceEvery <= 0 || !c.canTrace.Load() {
		return t0, 0
	}
	m.traceN++
	if m.traceN < c.cfg.TraceEvery {
		return t0, 0
	}
	m.traceN = 0
	return t0, c.traceSeq.Add(1)
}

// done closes a completed operation: its round trip (retries included)
// into op's RTT histogram and, when sampled, its client span plus a
// tail-sample offer so slow round trips are retained locally too.
// 0 allocs.
func (m *meter) done(op byte, t0 time.Time, tid uint64) {
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	if slot := copFor(op); slot >= 0 {
		m.c.rtt.h[slot].Record(m.hint, uint64(d))
	}
	if tid != 0 {
		m.c.tracer.Record(m.hint, trace.Span{
			TraceID: tid, Kind: trace.KindClient, Op: op,
			Start: uint64(t0.UnixNano()), Dur: uint64(d),
		})
		m.c.tracer.RecordTail(op, tid, uint64(d))
	}
}

// RTT snapshots the client-side round-trip histograms, keyed by
// instrument name ("rtt_get_ns", ...). Ops that never ran are omitted,
// and cost no allocation: every histogram snapshots into one scratch,
// copied out only when it holds observations.
func (c *Client) RTT() map[string]*metrics.Snapshot {
	out := make(map[string]*metrics.Snapshot, numClientOps)
	var s metrics.Snapshot
	for i := range c.rtt.h {
		c.rtt.h[i].Snapshot(&s)
		if s.Count != 0 {
			cp := s
			out[copNames[i]] = &cp
		}
	}
	return out
}

// ServerMetrics is a decoded METRICS response: the server's full
// instrument set at one point in time.
type ServerMetrics struct {
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]*metrics.Snapshot
}

// ServerMetrics fetches the server's observability snapshot over the
// control connection.
func (c *Client) ServerMetrics() (*ServerMetrics, error) {
	var sm *ServerMetrics
	var it wire.MetricsItem
	err := c.control(wire.OpMetrics, func(out []byte, id uint64) []byte {
		sm = &ServerMetrics{
			Counters: make(map[string]uint64),
			Gauges:   make(map[string]int64),
			Hists:    make(map[string]*metrics.Snapshot),
		}
		return wire.AppendMetricsReq(out, id)
	}, wire.RespMetrics, func(payload []byte) (bool, error) {
		last, err := wire.DecodeMetricsItem(payload, &it)
		if err != nil {
			return true, err
		}
		name := string(it.Name)
		switch it.Kind {
		case wire.MetricCounter:
			sm.Counters[name] = it.Value
		case wire.MetricGauge:
			sm.Gauges[name] = it.Gauge()
		case wire.MetricHistogram:
			s := new(metrics.Snapshot)
			*s = it.Hist
			sm.Hists[name] = s
		}
		return last, nil
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}
