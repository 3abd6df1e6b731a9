package wire

import "testing"

func TestTraceCtxRoundTrip(t *testing.T) {
	var r Request
	id, op, payload := splitFrame(t, AppendTraceCtx(nil, 3, 0xDEADBEEFCAFE))
	if op != OpTraceCtx {
		t.Fatalf("op %#x, want OpTraceCtx", op)
	}
	if err := DecodeRequest(id, op, payload, &r); err != nil {
		t.Fatal(err)
	}
	if r.Key != 0xDEADBEEFCAFE {
		t.Fatalf("trace id %#x", r.Key)
	}
	// Unknown payload version: rejected (the field exists so the frame
	// can grow without a new opcode).
	bad := append([]byte{}, payload...)
	bad[0] = 0x7F
	if err := DecodeRequest(id, op, bad, &r); err == nil {
		t.Fatal("accepted unknown trace ctx version")
	}
	if err := DecodeRequest(id, op, payload[:5], &r); err == nil {
		t.Fatal("accepted short trace ctx payload")
	}
}

func TestTraceDumpRoundTrip(t *testing.T) {
	var r Request
	id, op, payload := splitFrame(t, AppendTraceDump(nil, 4, 17))
	if op != OpTraceDump {
		t.Fatalf("op %#x, want OpTraceDump", op)
	}
	if err := DecodeRequest(id, op, payload, &r); err != nil {
		t.Fatal(err)
	}
	if r.Key != 17 {
		t.Fatalf("max %d, want 17", r.Key)
	}
	if err := DecodeRequest(id, op, payload[:3], &r); err == nil {
		t.Fatal("accepted short trace dump payload")
	}
}

func TestTraceFrameRoundTrip(t *testing.T) {
	b := BeginTrace(nil, 9, 0xABCD, true)
	b = AppendSpan(b, 3, 0x02, 100, 50, 7)
	b = AppendSpan(b, 4, 0x02, 150, 25, 0)
	b = FinishTrace(b, 0, true)
	id, op, payload := splitFrame(t, b)
	if id != 9 || op != RespTrace {
		t.Fatalf("frame id=%d op=%#x", id, op)
	}
	var tf TraceFrame
	if err := DecodeTrace(payload, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.TraceID != 0xABCD || !tf.Slow || !tf.Last {
		t.Fatalf("decoded %+v", tf)
	}
	if n := TraceSpans(tf.Spans); n != 2 {
		t.Fatalf("%d spans, want 2", n)
	}
	kind, sop, start, dur, aux := SpanAt(tf.Spans, 0)
	if kind != 3 || sop != 0x02 || start != 100 || dur != 50 || aux != 7 {
		t.Fatalf("span 0 = %d %#x %d %d %d", kind, sop, start, dur, aux)
	}
	kind, _, start, dur, _ = SpanAt(tf.Spans, 1)
	if kind != 4 || start != 150 || dur != 25 {
		t.Fatalf("span 1 = kind %d start %d dur %d", kind, start, dur)
	}

	// Non-final frame of a multi-trace dump: TraceLast clear.
	b = FinishTrace(BeginTrace(nil, 9, 1, false), 0, false)
	_, _, payload = splitFrame(t, b)
	if err := DecodeTrace(payload, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Last || tf.Slow || tf.TraceID != 1 || TraceSpans(tf.Spans) != 0 {
		t.Fatalf("empty frame decoded %+v", tf)
	}
}

// TestTraceFrameMidBuffer: BeginTrace/FinishTrace patch offsets
// correctly when the frame is appended after existing bytes (the server
// streams dumps into reused buffers).
func TestTraceFrameMidBuffer(t *testing.T) {
	prefix := AppendRespOK(nil, 1)
	start := len(prefix)
	b := BeginTrace(prefix, 2, 55, false)
	b = AppendSpan(b, 1, 0x01, 9, 9, 9)
	b = FinishTrace(b, start, true)
	_, op, payload := splitFrame(t, b[start:])
	if op != RespTrace {
		t.Fatalf("op %#x", op)
	}
	var tf TraceFrame
	if err := DecodeTrace(payload, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.TraceID != 55 || !tf.Last || TraceSpans(tf.Spans) != 1 {
		t.Fatalf("decoded %+v", tf)
	}
}

func TestTraceFrameValidation(t *testing.T) {
	if err := DecodeTrace([]byte{0, 0}, new(TraceFrame)); err == nil {
		t.Fatal("accepted short trace payload")
	}
	// Claimed span count larger than the payload.
	b := FinishTrace(BeginTrace(nil, 1, 1, false), 0, true)
	payload := append([]byte{}, b[HeaderLen:]...)
	payload[9] = 5
	if err := DecodeTrace(payload, new(TraceFrame)); err == nil {
		t.Fatal("accepted span count mismatch")
	}
}

func TestReplicateTracedRoundTrip(t *testing.T) {
	var r Request
	kinds := []byte{ReplPut, ReplDelete, ReplPut}
	keys := []uint64{1, 2, 3}
	vals := []uint64{10, 0, 30}
	traces := []uint64{0xA1, 0, 0xA3}
	frame := AppendReplicate(nil, 5, 100, kinds, keys, vals, traces)
	id, op, payload := splitFrame(t, frame)
	if err := DecodeRequest(id, op, payload, &r); err != nil {
		t.Fatal(err)
	}
	if r.Key != 100 || len(r.Ops) != 3 || len(r.Keys) != 3 || len(r.Vals) != 3 {
		t.Fatalf("decoded firstSeq %d ops %v keys %v vals %v", r.Key, r.Ops, r.Keys, r.Vals)
	}
	if len(r.Traces) != 3 || r.Traces[0] != 0xA1 || r.Traces[1] != 0 || r.Traces[2] != 0xA3 {
		t.Fatalf("traces %v", r.Traces)
	}
	if r.Keys[2] != 3 || r.Vals[2] != 30 || r.Ops[1] != ReplDelete {
		t.Fatalf("entry columns corrupted: %v %v %v", r.Ops, r.Keys, r.Vals)
	}
	// The legacy (untraced) form still decodes with empty Traces — and a
	// reused scratch Request must not leak the previous frame's ids.
	id, op, payload = splitFrame(t, AppendReplicate(nil, 6, 100, kinds, keys, vals, nil))
	if err := DecodeRequest(id, op, payload, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Traces) != 0 {
		t.Fatalf("legacy frame decoded traces %v", r.Traces)
	}
}

// FuzzDecodeTraces feeds arbitrary bytes through the RespTrace decoder
// the client runs on untrusted server bytes.
func FuzzDecodeTraces(f *testing.F) {
	f.Add([]byte{})
	f.Add(FinishTrace(BeginTrace(nil, 1, 0, false), 0, true)[HeaderLen:])
	seed := BeginTrace(nil, 2, 77, true)
	seed = AppendSpan(seed, 4, 0x01, 1, 2, 3)
	f.Add(FinishTrace(seed, 0, true)[HeaderLen:])
	var tf TraceFrame
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := DecodeTrace(payload, &tf); err != nil {
			return
		}
		n := TraceSpans(tf.Spans)
		if n > MaxTraceSpans {
			t.Fatalf("accepted %d spans > MaxTraceSpans", n)
		}
		for i := 0; i < n; i++ {
			SpanAt(tf.Spans, i)
		}
	})
}
