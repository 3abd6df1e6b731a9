package client

// Client-side request tracing: the per-client span collector and the
// OpTraceDump RPC that drains a server's collector for abtree-top and
// the end-to-end trace tests. Head sampling (Config.TraceEvery) and the
// client span are the per-op meter's (metrics.go).

import (
	"repro/internal/trace"
	"repro/internal/wire"
)

// Tracer returns the client's local span collector (nil unless
// Config.TraceEvery > 0; a nil collector's methods are no-ops).
func (c *Client) Tracer() *trace.Collector { return c.tracer }

// LocalTraces dumps the client-side collector: the client spans of
// recently sampled operations, grouped by trace id (see trace.Dump).
func (c *Client) LocalTraces(max int) []trace.Trace { return c.tracer.Dump(max) }

// ServerTrace is one trace fetched from a server's collector over the
// wire.
type ServerTrace struct {
	TraceID uint64
	Slow    bool // retained by the server's tail sampler
	Spans   []trace.Span
}

// ServerTraces drains the server's trace collector over the control
// connection: up to max traces (0 = server default), tail-sampled slow
// traces first.
func (c *Client) ServerTraces(max int) ([]ServerTrace, error) {
	if max < 0 {
		max = 0
	}
	var out []ServerTrace
	var tf wire.TraceFrame
	err := c.control(wire.OpTraceDump, func(b []byte, id uint64) []byte {
		out = out[:0]
		return wire.AppendTraceDump(b, id, uint32(max))
	}, wire.RespTrace, func(payload []byte) (bool, error) {
		if err := wire.DecodeTrace(payload, &tf); err != nil {
			return true, err
		}
		// The empty dump's terminator frame (trace id 0) is protocol,
		// not data.
		if tf.TraceID != 0 {
			st := ServerTrace{
				TraceID: tf.TraceID,
				Slow:    tf.Slow,
				Spans:   make([]trace.Span, wire.TraceSpans(tf.Spans)),
			}
			for i := range st.Spans {
				kind, op, start, dur, aux := wire.SpanAt(tf.Spans, i)
				st.Spans[i] = trace.Span{
					TraceID: tf.TraceID, Kind: kind, Op: op,
					Start: start, Dur: dur, Aux: aux,
				}
			}
			out = append(out, st)
		}
		return tf.Last, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
