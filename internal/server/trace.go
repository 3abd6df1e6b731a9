package server

// The server half of request-scoped tracing (internal/trace): the
// OpTraceDump wire operation and the /debug/traces JSON view. Span
// *recording* is inlined in the hot paths (run, observe, repl) —
// this file is only the snapshot-rate read side.

import (
	"fmt"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// sinceNs is time.Since clamped non-negative, in nanoseconds — the span
// duration stamp.
func sinceNs(t0 time.Time) uint64 {
	d := time.Since(t0)
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// serveTraceDump streams the collector's current traces as RespTrace
// frames, one per trace, tail-sampled slow traces first; the final
// frame carries TraceLast. An empty collector answers one empty last
// frame so the client always gets a terminator.
func (w *worker) serveTraceDump(c *srvConn, id uint64, max int) {
	if max > trace.DefaultDumpMax*4 {
		max = trace.DefaultDumpMax * 4
	}
	traces := w.s.tracer.Dump(max)
	if len(traces) == 0 {
		start := len(c.out)
		c.out = wire.FinishTrace(wire.BeginTrace(c.out, id, 0, false), start, true)
		return
	}
	for i := range traces {
		tr := &traces[i]
		start := len(c.out)
		c.out = wire.BeginTrace(c.out, id, tr.TraceID, tr.Slow)
		spans := tr.Spans
		if len(spans) > wire.MaxTraceSpans {
			spans = spans[:wire.MaxTraceSpans]
		}
		for _, sp := range spans {
			c.out = wire.AppendSpan(c.out, sp.Kind, sp.Op, sp.Start, sp.Dur, sp.Aux)
		}
		c.out = wire.FinishTrace(c.out, start, i == len(traces)-1)
		if c.cut() != nil {
			return
		}
	}
}

// SpanDump is one span in the /debug/traces JSON view.
type SpanDump struct {
	Kind        string `json:"kind"`
	Op          string `json:"op,omitempty"`
	StartUnixNs uint64 `json:"start_unix_ns"`
	DurNs       uint64 `json:"dur_ns"`
	Aux         uint64 `json:"aux,omitempty"`
}

// TraceDump is one trace in the /debug/traces JSON view.
type TraceDump struct {
	TraceID string     `json:"trace_id"`
	Slow    bool       `json:"slow,omitempty"`
	Spans   []SpanDump `json:"spans"`
}

// TracesDump snapshots the trace collector for the -debug HTTP
// endpoint: up to max traces (0 = default), slow traces first, span
// kinds and opcodes rendered with the shared OpName/KindName
// vocabulary. Snapshot-rate only.
func (s *Server) TracesDump(max int) []TraceDump {
	traces := s.tracer.Dump(max)
	out := make([]TraceDump, len(traces))
	for i := range traces {
		tr := &traces[i]
		td := TraceDump{
			TraceID: fmt.Sprintf("%016x", tr.TraceID),
			Slow:    tr.Slow,
			Spans:   make([]SpanDump, len(tr.Spans)),
		}
		for j, sp := range tr.Spans {
			op := ""
			if sp.Op != 0 {
				op = wire.OpName(sp.Op)
			}
			td.Spans[j] = SpanDump{
				Kind:        trace.KindName(sp.Kind),
				Op:          op,
				StartUnixNs: sp.Start,
				DurNs:       sp.Dur,
				Aux:         sp.Aux,
			}
		}
		out[i] = td
	}
	return out
}
