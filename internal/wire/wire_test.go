package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// splitFrame parses an encoded frame's header and returns id, op and
// payload, asserting the length prefix is consistent.
func splitFrame(t *testing.T, b []byte) (id uint64, op byte, payload []byte) {
	t.Helper()
	if len(b) < HeaderLen {
		t.Fatalf("frame of %d bytes is shorter than the header", len(b))
	}
	length := binary.LittleEndian.Uint32(b[:4])
	if int(length) != len(b)-4 {
		t.Fatalf("frame length %d, want %d", length, len(b)-4)
	}
	return binary.LittleEndian.Uint64(b[4:12]), b[12], b[HeaderLen:]
}

func TestRequestRoundTrip(t *testing.T) {
	var r Request
	cases := []struct {
		name  string
		frame []byte
		check func(t *testing.T)
	}{
		{"get", AppendPoint(nil, 1, OpGet, 42, 0), func(t *testing.T) {
			if r.Key != 42 {
				t.Fatalf("key %d", r.Key)
			}
		}},
		{"put", AppendPoint(nil, 2, OpPut, 42, 99), func(t *testing.T) {
			if r.Key != 42 || r.Val != 99 {
				t.Fatalf("(%d,%d)", r.Key, r.Val)
			}
		}},
		{"delete", AppendPoint(nil, 3, OpDelete, 7, 0), func(t *testing.T) {
			if r.Key != 7 {
				t.Fatalf("key %d", r.Key)
			}
		}},
		{"mget", AppendBatch(nil, 4, OpMGet, []uint64{1, 2, 3}, nil), func(t *testing.T) {
			if len(r.Keys) != 3 || r.Keys[2] != 3 {
				t.Fatalf("keys %v", r.Keys)
			}
		}},
		{"mput", AppendBatch(nil, 5, OpMPut, []uint64{1, 2}, []uint64{10, 20}), func(t *testing.T) {
			if len(r.Keys) != 2 || len(r.Vals) != 2 || r.Vals[1] != 20 {
				t.Fatalf("keys %v vals %v", r.Keys, r.Vals)
			}
		}},
		{"mdelete", AppendBatch(nil, 6, OpMDelete, []uint64{9}, nil), func(t *testing.T) {
			if len(r.Keys) != 1 || r.Keys[0] != 9 {
				t.Fatalf("keys %v", r.Keys)
			}
		}},
		{"scan", AppendScan(nil, 7, false, 10, 20), func(t *testing.T) {
			if r.Op != OpScan || r.Key != 10 || r.Val != 20 {
				t.Fatalf("op %#x [%d,%d]", r.Op, r.Key, r.Val)
			}
		}},
		{"snapscan", AppendScan(nil, 8, true, 10, 20), func(t *testing.T) {
			if r.Op != OpSnapScan {
				t.Fatalf("op %#x", r.Op)
			}
		}},
		{"stats", AppendStats(nil, 9), func(t *testing.T) {}},
		{"open", AppendOpen(nil, 10, 1000, "shard8-occ-abtree"), func(t *testing.T) {
			if r.Key != 1000 || string(r.Name) != "shard8-occ-abtree" {
				t.Fatalf("keyRange %d name %q", r.Key, r.Name)
			}
		}},
		{"replicate", AppendReplicate(nil, 11, 42, []byte{ReplPut, ReplDelete}, []uint64{7, 8}, []uint64{70, 0}, nil), func(t *testing.T) {
			if r.Key != 42 || len(r.Ops) != 2 || r.Ops[0] != ReplPut || r.Ops[1] != ReplDelete {
				t.Fatalf("firstSeq %d ops %v", r.Key, r.Ops)
			}
			if len(r.Keys) != 2 || r.Keys[1] != 8 || len(r.Vals) != 2 || r.Vals[0] != 70 {
				t.Fatalf("keys %v vals %v", r.Keys, r.Vals)
			}
		}},
		{"replicate-probe", AppendReplicate(nil, 12, 0, nil, nil, nil, nil), func(t *testing.T) {
			if r.Key != 0 || len(r.Ops) != 0 || len(r.Keys) != 0 {
				t.Fatalf("probe decoded firstSeq %d ops %v keys %v", r.Key, r.Ops, r.Keys)
			}
		}},
		{"promote", AppendPromote(nil, 13, 1, "127.0.0.1:7001,127.0.0.1:7002"), func(t *testing.T) {
			if r.Key != 1 || string(r.Name) != "127.0.0.1:7001,127.0.0.1:7002" {
				t.Fatalf("ack %d addrs %q", r.Key, r.Name)
			}
		}},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			id, op, payload := splitFrame(t, c.frame)
			if id != uint64(i+1) {
				t.Fatalf("id %d, want %d", id, i+1)
			}
			if err := DecodeRequest(id, op, payload, &r); err != nil {
				t.Fatal(err)
			}
			if r.ID != id || r.Op != op {
				t.Fatalf("decoded (id=%d op=%#x), want (%d, %#x)", r.ID, r.Op, id, op)
			}
			c.check(t)
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	// Point.
	_, op, payload := splitFrame(t, AppendRespPoint(nil, 1, 77, true))
	if op != RespPoint {
		t.Fatalf("op %#x", op)
	}
	if v, ok, seq, err := DecodePoint(payload); err != nil || v != 77 || !ok || seq != 0 {
		t.Fatalf("(%d,%v,%d,%v)", v, ok, seq, err)
	}

	// Point with a replication seq.
	_, op, payload = splitFrame(t, AppendRespPointSeq(nil, 1, 77, true, 31))
	if op != RespPoint {
		t.Fatalf("op %#x", op)
	}
	if v, ok, seq, err := DecodePoint(payload); err != nil || v != 77 || !ok || seq != 31 {
		t.Fatalf("(%d,%v,%d,%v)", v, ok, seq, err)
	}

	// Batch.
	vals := []uint64{5, 6, 7}
	oks := []bool{true, false, true}
	_, op, payload = splitFrame(t, AppendRespBatch(nil, 2, vals, oks))
	if op != RespBatch {
		t.Fatalf("op %#x", op)
	}
	gv := make([]uint64, 3)
	gk := make([]bool, 3)
	if seq, err := DecodeBatch(payload, gv, gk); err != nil || seq != 0 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	for i := range vals {
		if gv[i] != vals[i] || gk[i] != oks[i] {
			t.Fatalf("i=%d: (%d,%v), want (%d,%v)", i, gv[i], gk[i], vals[i], oks[i])
		}
	}

	// Batch with a replication seq.
	_, op, payload = splitFrame(t, AppendRespBatchSeq(nil, 2, vals, oks, 99))
	if op != RespBatch {
		t.Fatalf("op %#x", op)
	}
	if seq, err := DecodeBatch(payload, gv, gk); err != nil || seq != 99 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	if gv[2] != 7 || gk[1] {
		t.Fatalf("seq batch decoded %v %v", gv, gk)
	}

	// Scan chunks, empty and multi-pair, last and not.
	b := BeginChunk(nil, 3)
	b = AppendPair(b, 1, 10)
	b = AppendPair(b, 2, 20)
	b = FinishChunk(b, 0, false)
	if n := ChunkPairs(b, 0); n != 2 {
		t.Fatalf("ChunkPairs %d", n)
	}
	_, op, payload = splitFrame(t, b)
	if op != RespScanChunk {
		t.Fatalf("op %#x", op)
	}
	last, pairs, err := DecodeChunk(payload)
	if err != nil || last {
		t.Fatalf("last=%v err=%v", last, err)
	}
	if k, v := PairAt(pairs, 1); k != 2 || v != 20 {
		t.Fatalf("pair 1 = (%d,%d)", k, v)
	}
	b = FinishChunk(BeginChunk(nil, 4), 0, true)
	_, _, payload = splitFrame(t, b)
	if last, pairs, err := DecodeChunk(payload); err != nil || !last || len(pairs) != 0 {
		t.Fatalf("empty last chunk: last=%v pairs=%d err=%v", last, len(pairs), err)
	}

	// Stats.
	want := Stats{KeySum: 1, Scans: 2, Versions: 3, ElimInserts: 4, ElimDeletes: 5,
		ElimUpserts: 6, KeyRange: 7, Gen: 8, CanRange: true, CanSnap: true,
		Role: RoleFollower, Partition: 3, ReplSeq: 1234, Name: "occ"}
	_, op, payload = splitFrame(t, AppendRespStats(nil, 5, want))
	if op != RespStats {
		t.Fatalf("op %#x", op)
	}
	got, err := DecodeStats(payload)
	if err != nil || got != want {
		t.Fatalf("stats %+v, want %+v (err %v)", got, want, err)
	}

	// Repl ack.
	_, op, payload = splitFrame(t, AppendRespReplAck(nil, 8, 555))
	if op != RespReplAck {
		t.Fatalf("op %#x", op)
	}
	if applied, err := DecodeReplAck(payload); err != nil || applied != 555 {
		t.Fatalf("applied=%d err=%v", applied, err)
	}

	// OK and error.
	_, op, payload = splitFrame(t, AppendRespOK(nil, 6))
	if op != RespOK || len(payload) != 0 {
		t.Fatalf("op %#x payload %d", op, len(payload))
	}
	_, op, payload = splitFrame(t, AppendRespError(nil, 7, "boom"))
	if op != RespError || !bytes.Equal(payload, []byte("boom")) {
		t.Fatalf("op %#x payload %q", op, payload)
	}
}

// TestDecodeScratchReuse: decoding a smaller request into a Request
// previously used for a bigger one must not leak stale keys.
func TestDecodeScratchReuse(t *testing.T) {
	var r Request
	big := AppendBatch(nil, 1, OpMPut, []uint64{1, 2, 3, 4}, []uint64{5, 6, 7, 8})
	_, op, payload := splitFrame(t, big)
	if err := DecodeRequest(1, op, payload, &r); err != nil {
		t.Fatal(err)
	}
	small := AppendBatch(nil, 2, OpMGet, []uint64{42}, nil)
	_, op, payload = splitFrame(t, small)
	if err := DecodeRequest(2, op, payload, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Keys) != 1 || r.Keys[0] != 42 {
		t.Fatalf("reused scratch decoded keys %v", r.Keys)
	}
}

// FuzzDecodeRequest feeds arbitrary bytes through the request decoder —
// the same function the server runs on every untrusted frame. It must
// never panic, and an accepted batch must have internally consistent
// slices.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(uint8(OpGet), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(OpMPut), []byte{2, 0, 0, 0})
	f.Add(uint8(OpOpen), []byte("12345678occ"))
	f.Add(uint8(0x7F), []byte{})
	seed := AppendBatch(nil, 9, OpMGet, []uint64{1, 2, 3}, nil)
	f.Add(uint8(OpMGet), seed[HeaderLen:])
	repl := AppendReplicate(nil, 10, 5, []byte{ReplPut}, []uint64{1}, []uint64{2}, nil)
	f.Add(uint8(OpReplicate), repl[HeaderLen:])
	f.Add(uint8(OpPromote), AppendPromote(nil, 11, 1, "a:1,b:2")[HeaderLen:])
	f.Add(uint8(OpTraceCtx), AppendTraceCtx(nil, 12, 7)[HeaderLen:])
	f.Add(uint8(OpTraceDump), AppendTraceDump(nil, 13, 32)[HeaderLen:])
	rtr := AppendReplicate(nil, 14, 5, []byte{ReplPut}, []uint64{1}, []uint64{2}, []uint64{3})
	f.Add(uint8(OpReplicate), rtr[HeaderLen:])
	var r Request
	f.Fuzz(func(t *testing.T, op uint8, payload []byte) {
		if err := DecodeRequest(1, op, payload, &r); err != nil {
			return
		}
		switch r.Op {
		case OpMGet, OpMDelete:
			if len(r.Keys) > MaxBatch {
				t.Fatalf("accepted %d keys > MaxBatch", len(r.Keys))
			}
		case OpMPut:
			if len(r.Keys) != len(r.Vals) {
				t.Fatalf("MPUT keys %d != vals %d", len(r.Keys), len(r.Vals))
			}
		case OpReplicate:
			if len(r.Ops) != len(r.Keys) || len(r.Ops) != len(r.Vals) {
				t.Fatalf("REPLICATE ops %d keys %d vals %d", len(r.Ops), len(r.Keys), len(r.Vals))
			}
			for _, k := range r.Ops {
				if k != ReplPut && k != ReplDelete {
					t.Fatalf("accepted entry kind %#x", k)
				}
			}
			if len(r.Traces) != 0 && len(r.Traces) != len(r.Ops) {
				t.Fatalf("REPLICATE traces %d for %d entries", len(r.Traces), len(r.Ops))
			}
		}
	})
}

// FuzzDecodeResponses feeds arbitrary bytes through every response
// decoder the client runs on untrusted server bytes.
func FuzzDecodeResponses(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRespPoint(nil, 1, 5, true)[HeaderLen:])
	f.Add(AppendRespPointSeq(nil, 1, 5, true, 9)[HeaderLen:])
	f.Add(FinishChunk(AppendPair(BeginChunk(nil, 1), 3, 4), 0, true)[HeaderLen:])
	f.Add(AppendRespStats(nil, 1, Stats{Role: RolePrimary, ReplSeq: 7, Name: "x"})[HeaderLen:])
	f.Add(AppendRespReplAck(nil, 1, 3)[HeaderLen:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		DecodePoint(payload)
		DecodeStats(payload)
		DecodeReplAck(payload)
		if last, pairs, err := DecodeChunk(payload); err == nil {
			_ = last
			for i := 0; i < len(pairs)/16; i++ {
				PairAt(pairs, i)
			}
		}
		vals := make([]uint64, 4)
		oks := make([]bool, 4)
		DecodeBatch(payload, vals, oks)
	})
}
