package client

// Client-side observability: every handle records the round-trip time
// of each operation into a per-op striped histogram shared by the whole
// Client (handles stripe by a per-handle hint, so concurrent workers
// never contend), and ServerMetrics drains the server's METRICS stream
// into plain maps. Recording is two time.Now calls and two atomic adds
// per op — the warmed remote point path stays 0 allocs/op.

import (
	"fmt"
	"time"

	"repro/internal/metrics"
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

// observe records one completed operation's round trip.
func (h *handle) observe(slot int, t0 time.Time) {
	if h.rtt == nil || slot < 0 {
		return
	}
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	h.rtt.h[slot].Record(h.hint, uint64(d))
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
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	h, err := c.ctrlHandle()
	if err != nil {
		return nil, err
	}
	return h.rpcMetrics()
}

func (h *handle) rpcMetrics() (*ServerMetrics, error) {
	var sm *ServerMetrics
	err := h.retryIdempotent(func() error {
		id := h.nextID()
		h.out = wire.AppendMetricsReq(h.out[:0], id)
		if _, err := h.writeFrames(); err != nil {
			return err
		}
		sm = &ServerMetrics{
			Counters: make(map[string]uint64),
			Gauges:   make(map[string]int64),
			Hists:    make(map[string]*metrics.Snapshot),
		}
		var it wire.MetricsItem
		for {
			rid, rop, payload, err := h.fr.Next()
			if err != nil {
				return err
			}
			if rop == wire.RespBusy {
				return errBusy
			}
			if rop == wire.RespError {
				return respError(payload)
			}
			if rid != id || rop != wire.RespMetrics {
				return fmt.Errorf("metrics response mismatch: got id=%d op=%#x, want id=%d op=%#x", rid, rop, id, wire.RespMetrics)
			}
			last, err := wire.DecodeMetricsItem(payload, &it)
			if err != nil {
				return err
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
			if last {
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}
