// Package wire defines the binary protocol the network service layer
// (internal/server, internal/client) speaks: a compact length-prefixed
// frame format carrying the dictionary operations of internal/dict —
// GET/PUT/DELETE, their batched MGET/MPUT/MDELETE forms (the wire
// consumers of dict.Batcher), streamed SCAN/SNAPSHOT_SCAN responses,
// and STATS/OPEN control operations.
//
// Frame layout (all integers little-endian):
//
//	| length u32 | id u64 | op u8 | payload ... |
//
// length counts everything after the length field (id + op + payload),
// so a frame occupies 4+length bytes and length is always >= 9. id is
// chosen by the client and echoed verbatim in every response frame for
// the request, which lets a connection pipeline requests and check each
// response against its request. A server answers a connection's frames
// in the order it read them, so a client may treat a response to any
// frame but its oldest unanswered one as a protocol error. A scan response is a sequence of
// RespScanChunk frames sharing the request's id; the final chunk sets
// ChunkLast.
//
// Request payloads:
//
//	OpGet      key u64
//	OpPut      key u64, val u64            insert-if-absent (dict.Handle.Insert)
//	OpDelete   key u64
//	OpMGet     n u32, n*key
//	OpMPut     n u32, n*key, n*val
//	OpMDelete  n u32, n*key
//	OpScan     lo u64, hi u64              weak Range
//	OpSnapScan lo u64, hi u64              linearizable RangeSnapshot
//	OpStats     (empty)
//	OpOpen      keyRange u64, name bytes    host a fresh structure
//	OpMetrics   (empty)                     observability snapshot (metrics.go)
//	OpReplicate firstSeq u64, n u32, n*kind u8, n*key u64, n*val u64
//	OpPromote   ack u32, addrs bytes        comma-separated follower addrs
//
// Response payloads:
//
//	RespPoint     val u64, ok u8 [, seq u64]
//	RespBatch     n u32, n*val, n*ok [, seq u64]
//	RespScanChunk flags u8, n u32, n*(k u64, v u64)
//	RespStats     keysum, scans, versions, elim{i,d,u}, keyrange, gen (8*u64),
//	              caps u8, role u8, partition u64, replSeq u64, name bytes
//	RespOK        (empty)
//	RespMetrics   one streamed instrument snapshot (see metrics.go)
//	RespBusy      (empty)                   admission-control rejection (safe to retry)
//	RespReplAck   applied u64               follower's cumulative apply position
//	RespError     message bytes
//
// The optional trailing seq on RespPoint/RespBatch is the replication
// sequence number: a replicated primary stamps mutations with the op-log
// seq they committed at (reads with the current committed position) and a
// follower stamps reads with its applied position, which lets a routing
// client enforce read-your-writes across replicas. Standalone servers
// omit it, keeping the original 9-byte point response (and its 0-alloc
// decode path) unchanged.
//
// Every encoder is an appender over a caller-owned buffer and every
// decoder parses into caller-owned scratch, so both endpoints can run
// the point-operation path without allocating (the PR 3 scratch-buffer
// discipline, extended across the wire).
package wire

import (
	"encoding/binary"
	"fmt"
)

// Request opcodes.
const (
	OpGet      = 0x01
	OpPut      = 0x02
	OpDelete   = 0x03
	OpMGet     = 0x10
	OpMPut     = 0x11
	OpMDelete  = 0x12
	OpScan     = 0x20
	OpSnapScan = 0x21
	OpStats    = 0x30
	OpOpen     = 0x31
	OpMetrics  = 0x32
	// Replication opcodes (primary/follower log shipping). REPLICATE
	// ships a contiguous run of sequenced op-log entries from a primary
	// to a follower (n == 0 is the cursor probe: the follower answers
	// with its applied position and nothing is shipped). PROMOTE turns a
	// follower into a primary, handing it the follower addresses it
	// should ship to from now on.
	OpReplicate = 0x40
	OpPromote   = 0x41
)

// Response opcodes.
const (
	RespPoint     = 0x81
	RespBatch     = 0x82
	RespScanChunk = 0x83
	RespStats     = 0x84
	RespOK        = 0x85
	RespMetrics   = 0x86
	// RespBusy is the admission-control rejection frame: a server over
	// its connection limit answers a fresh accept with one BUSY frame
	// (id 0, empty payload) and closes. The rejecting server has read
	// nothing from the connection, so a client seeing BUSY may safely
	// retry ANY operation — mutations included — after backing off.
	RespBusy = 0x87
	// RespReplAck answers a REPLICATE frame with the follower's applied
	// sequence position (cumulative: every entry with seq <= applied has
	// been applied exactly once).
	RespReplAck = 0x88
	RespError   = 0xFF
)

// Op-log entry kinds carried by REPLICATE frames. Only effective
// mutations are logged (an insert that found the key present, or a
// delete that missed, changes nothing and ships nothing), so a ReplPut
// entry always sets the key and a ReplDelete always clears it.
const (
	ReplPut    = 0x01
	ReplDelete = 0x02
)

// Replication roles reported by STATS.
const (
	RoleStandalone = 0x00
	RolePrimary    = 0x01
	RoleFollower   = 0x02
)

// RoleName returns the human-readable name of a replication role.
func RoleName(role byte) string {
	switch role {
	case RoleStandalone:
		return "standalone"
	case RolePrimary:
		return "primary"
	case RoleFollower:
		return "follower"
	}
	return "unknown"
}

// Protocol limits. MaxFrame bounds what either endpoint will buffer for
// one frame (an incoming length above it is a protocol error and closes
// the connection); MaxBatch bounds the keys per batched frame (clients
// split larger batches into pipelined frames); MaxChunkPairs bounds the
// pairs per scan-response chunk.
const (
	MaxFrame      = 1 << 17 // 128 KiB
	MaxBatch      = 4096
	MaxChunkPairs = 1024

	// HeaderLen is the fixed frame prefix: length u32 + id u64 + op u8.
	HeaderLen = 13

	// ChunkLast marks the final RespScanChunk of a scan response.
	ChunkLast = 0x01
)

// Capability bits (RespStats caps byte): which scan kinds the hosted
// structure's handles serve.
const (
	CapRange = 0x01 // weak Range
	CapSnap  = 0x02 // linearizable RangeSnapshot
)

var le = binary.LittleEndian

// beginFrame appends the frame header with a zero length placeholder;
// finishFrame patches the length once the payload is in place.
func beginFrame(b []byte, id uint64, op byte) []byte {
	b = append(b, 0, 0, 0, 0)
	b = le.AppendUint64(b, id)
	return append(b, op)
}

func finishFrame(b []byte, start int) []byte {
	le.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// AppendPoint appends a GET/PUT/DELETE request frame. val is only
// encoded for OpPut.
func AppendPoint(b []byte, id uint64, op byte, key, val uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, op)
	b = le.AppendUint64(b, key)
	if op == OpPut {
		b = le.AppendUint64(b, val)
	}
	return finishFrame(b, start)
}

// AppendBatch appends an MGET/MPUT/MDELETE request frame over keys
// (and, for OpMPut, vals). len(keys) must be <= MaxBatch.
func AppendBatch(b []byte, id uint64, op byte, keys, vals []uint64) []byte {
	if len(keys) > MaxBatch {
		panic(fmt.Sprintf("wire: batch of %d keys exceeds MaxBatch %d", len(keys), MaxBatch))
	}
	start := len(b)
	b = beginFrame(b, id, op)
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = le.AppendUint64(b, k)
	}
	if op == OpMPut {
		for _, v := range vals[:len(keys)] {
			b = le.AppendUint64(b, v)
		}
	}
	return finishFrame(b, start)
}

// AppendScan appends a SCAN/SNAPSHOT_SCAN request frame.
func AppendScan(b []byte, id uint64, snapshot bool, lo, hi uint64) []byte {
	op := byte(OpScan)
	if snapshot {
		op = OpSnapScan
	}
	start := len(b)
	b = beginFrame(b, id, op)
	b = le.AppendUint64(b, lo)
	b = le.AppendUint64(b, hi)
	return finishFrame(b, start)
}

// AppendReplicate appends a REPLICATE request frame shipping the
// contiguous op-log run starting at firstSeq: entry i is
// (kinds[i], keys[i], vals[i]) with sequence number firstSeq+i.
// len(kinds) == 0 is the cursor probe. len(kinds) must be <= MaxBatch.
// A nil traces writes the untraced 12+17n form; otherwise the frame
// also ships traces[i] per entry (0 = untraced), the 12+25n form, so a
// mutation's trace follows its log entry to the follower. Send traces
// only to peers that advertised CapTrace.
func AppendReplicate(b []byte, id uint64, firstSeq uint64, kinds []byte, keys, vals, traces []uint64) []byte {
	if len(kinds) > MaxBatch {
		panic(fmt.Sprintf("wire: replicate run of %d entries exceeds MaxBatch %d", len(kinds), MaxBatch))
	}
	start := len(b)
	b = beginFrame(b, id, OpReplicate)
	b = le.AppendUint64(b, firstSeq)
	b = le.AppendUint32(b, uint32(len(kinds)))
	b = append(b, kinds...)
	for _, k := range keys[:len(kinds)] {
		b = le.AppendUint64(b, k)
	}
	for _, v := range vals[:len(kinds)] {
		b = le.AppendUint64(b, v)
	}
	if traces != nil {
		for _, t := range traces[:len(kinds)] {
			b = le.AppendUint64(b, t)
		}
	}
	return finishFrame(b, start)
}

// AppendPromote appends a PROMOTE request frame: the receiving follower
// becomes a primary shipping to the comma-separated addrs (possibly
// empty), acking writes once ack followers have applied them.
func AppendPromote(b []byte, id uint64, ack int, addrs string) []byte {
	start := len(b)
	b = beginFrame(b, id, OpPromote)
	b = le.AppendUint32(b, uint32(ack))
	b = append(b, addrs...)
	return finishFrame(b, start)
}

// AppendStats appends a STATS request frame.
func AppendStats(b []byte, id uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, OpStats)
	return finishFrame(b, start)
}

// AppendOpen appends an OPEN request frame asking the server to host a
// fresh instance of the named registry structure sized for keyRange.
func AppendOpen(b []byte, id uint64, keyRange uint64, name string) []byte {
	start := len(b)
	b = beginFrame(b, id, OpOpen)
	b = le.AppendUint64(b, keyRange)
	b = append(b, name...)
	return finishFrame(b, start)
}

// AppendRespPoint appends a point-operation response frame.
func AppendRespPoint(b []byte, id uint64, val uint64, ok bool) []byte {
	start := len(b)
	b = beginFrame(b, id, RespPoint)
	b = le.AppendUint64(b, val)
	b = append(b, boolByte(ok))
	return finishFrame(b, start)
}

// AppendRespPointSeq appends a point-operation response frame carrying
// a trailing replication sequence number (replicated servers only).
func AppendRespPointSeq(b []byte, id uint64, val uint64, ok bool, seq uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, RespPoint)
	b = le.AppendUint64(b, val)
	b = append(b, boolByte(ok))
	b = le.AppendUint64(b, seq)
	return finishFrame(b, start)
}

// AppendRespBatch appends a batched-operation response frame carrying
// vals[i] and oks[i] for every key of the request, in input order.
func AppendRespBatch(b []byte, id uint64, vals []uint64, oks []bool) []byte {
	start := len(b)
	b = beginFrame(b, id, RespBatch)
	b = le.AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = le.AppendUint64(b, v)
	}
	for _, ok := range oks {
		b = append(b, boolByte(ok))
	}
	return finishFrame(b, start)
}

// AppendRespBatchSeq appends a batched-operation response frame with a
// trailing replication sequence number (replicated servers only).
func AppendRespBatchSeq(b []byte, id uint64, vals []uint64, oks []bool, seq uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, RespBatch)
	b = le.AppendUint32(b, uint32(len(vals)))
	for _, v := range vals {
		b = le.AppendUint64(b, v)
	}
	for _, ok := range oks {
		b = append(b, boolByte(ok))
	}
	b = le.AppendUint64(b, seq)
	return finishFrame(b, start)
}

// AppendRespReplAck appends a REPLICATE acknowledgement carrying the
// follower's cumulative applied sequence position.
func AppendRespReplAck(b []byte, id uint64, applied uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, RespReplAck)
	b = le.AppendUint64(b, applied)
	return finishFrame(b, start)
}

// DecodeReplAck parses a RespReplAck payload.
func DecodeReplAck(payload []byte) (applied uint64, err error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("wire: repl ack wants 8 payload bytes, got %d", len(payload))
	}
	return le.Uint64(payload), nil
}

// BeginChunk starts a RespScanChunk frame; append pairs with
// AppendPair and seal it with FinishChunk. start is len(b) at call
// time, threaded through to FinishChunk.
func BeginChunk(b []byte, id uint64) []byte {
	b = beginFrame(b, id, RespScanChunk)
	b = append(b, 0)             // flags, patched by FinishChunk
	return le.AppendUint32(b, 0) // pair count, patched by FinishChunk
}

// AppendPair appends one key/value pair to an open chunk.
func AppendPair(b []byte, k, v uint64) []byte {
	b = le.AppendUint64(b, k)
	return le.AppendUint64(b, v)
}

// FinishChunk seals a chunk begun at offset start, patching the frame
// length, the flags byte and the pair count.
func FinishChunk(b []byte, start int, last bool) []byte {
	if last {
		b[start+HeaderLen] = ChunkLast
	}
	n := (len(b) - start - HeaderLen - 5) / 16
	le.PutUint32(b[start+HeaderLen+1:], uint32(n))
	return finishFrame(b, start)
}

// ChunkPairs returns the number of pairs in a sealed chunk begun at
// offset start of b (used by the server to decide when a chunk is full).
func ChunkPairs(b []byte, start int) int {
	return (len(b) - start - HeaderLen - 5) / 16
}

// Stats is the decoded RespStats payload.
type Stats struct {
	KeySum      uint64
	Scans       uint64 // snapshot scans begun (dict.RQStatser)
	Versions    uint64 // superseded leaf versions preserved for them
	ElimInserts uint64
	ElimDeletes uint64
	ElimUpserts uint64
	KeyRange    uint64 // key range the hosted structure was sized for
	Gen         uint64 // hosting generation (bumped by every OPEN)
	CanRange    bool   // handles serve weak Range scans
	CanSnap     bool   // handles serve linearizable RangeSnapshot scans
	CanTrace    bool   // server understands OpTraceCtx/OpTraceDump (CapTrace)
	Role        byte   // RoleStandalone / RolePrimary / RoleFollower
	Partition   uint64 // partition index this server replicates (0 if standalone)
	ReplSeq     uint64 // primary: committed seq; follower: applied seq
	Name        string // hosted structure's registry name
}

// AppendRespStats appends a STATS response frame.
func AppendRespStats(b []byte, id uint64, s Stats) []byte {
	start := len(b)
	b = beginFrame(b, id, RespStats)
	for _, u := range [...]uint64{s.KeySum, s.Scans, s.Versions,
		s.ElimInserts, s.ElimDeletes, s.ElimUpserts, s.KeyRange, s.Gen} {
		b = le.AppendUint64(b, u)
	}
	var caps byte
	if s.CanRange {
		caps |= CapRange
	}
	if s.CanSnap {
		caps |= CapSnap
	}
	if s.CanTrace {
		caps |= CapTrace
	}
	b = append(b, caps)
	b = append(b, s.Role)
	b = le.AppendUint64(b, s.Partition)
	b = le.AppendUint64(b, s.ReplSeq)
	b = append(b, s.Name...)
	return finishFrame(b, start)
}

// AppendRespOK appends an empty success response frame.
func AppendRespOK(b []byte, id uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, RespOK)
	return finishFrame(b, start)
}

// AppendRespBusy appends an admission-control BUSY rejection frame
// (sent with id 0 at accept time, before any request is read).
func AppendRespBusy(b []byte, id uint64) []byte {
	start := len(b)
	b = beginFrame(b, id, RespBusy)
	return finishFrame(b, start)
}

// AppendRespError appends an error response frame carrying msg.
func AppendRespError(b []byte, id uint64, msg string) []byte {
	start := len(b)
	b = beginFrame(b, id, RespError)
	b = append(b, msg...)
	return finishFrame(b, start)
}

// Request is one decoded request frame. The slice fields are scratch
// reused across DecodeRequest calls on the same Request, so a decoded
// request is valid until the next decode into it.
type Request struct {
	ID  uint64
	Op  byte
	Key uint64 // point key; scan lo; OPEN keyRange; REPLICATE firstSeq; PROMOTE ack
	Val uint64 // PUT value; scan hi
	// Keys/Vals hold a batched request's keys and (for MPUT) values;
	// REPLICATE reuses them for the entries' keys and values.
	Keys, Vals []uint64
	// Traces holds a traced REPLICATE request's per-entry trace ids
	// (empty for the legacy untraced form: no entry is traced).
	Traces []uint64
	// Name holds an OPEN request's structure name or a PROMOTE
	// request's comma-separated follower addresses.
	Name []byte
	// Ops holds a REPLICATE request's entry kinds (ReplPut/ReplDelete).
	Ops []byte
}

// DecodeRequest parses a request frame's payload (everything after the
// op byte) into r. It validates sizes exhaustively — a malformed or
// oversized payload is an error, never a panic — so it is safe to feed
// untrusted bytes (the robustness fuzz test does exactly that).
func DecodeRequest(id uint64, op byte, payload []byte, r *Request) error {
	r.ID, r.Op = id, op
	switch op {
	case OpGet, OpDelete:
		if len(payload) != 8 {
			return fmt.Errorf("wire: op %#x wants 8 payload bytes, got %d", op, len(payload))
		}
		r.Key = le.Uint64(payload)
	case OpPut:
		if len(payload) != 16 {
			return fmt.Errorf("wire: PUT wants 16 payload bytes, got %d", len(payload))
		}
		r.Key = le.Uint64(payload)
		r.Val = le.Uint64(payload[8:])
	case OpScan, OpSnapScan:
		if len(payload) != 16 {
			return fmt.Errorf("wire: scan wants 16 payload bytes, got %d", len(payload))
		}
		r.Key = le.Uint64(payload)
		r.Val = le.Uint64(payload[8:])
	case OpMGet, OpMPut, OpMDelete:
		if len(payload) < 4 {
			return fmt.Errorf("wire: batch op %#x wants a count, got %d bytes", op, len(payload))
		}
		n := int(le.Uint32(payload))
		if n > MaxBatch {
			return fmt.Errorf("wire: batch of %d keys exceeds MaxBatch %d", n, MaxBatch)
		}
		want := 4 + 8*n
		if op == OpMPut {
			want += 8 * n
		}
		if len(payload) != want {
			return fmt.Errorf("wire: batch op %#x with %d keys wants %d payload bytes, got %d", op, n, want, len(payload))
		}
		r.Keys = decodeU64s(r.Keys[:0], payload[4:4+8*n])
		if op == OpMPut {
			r.Vals = decodeU64s(r.Vals[:0], payload[4+8*n:])
		}
	case OpStats, OpMetrics:
		if len(payload) != 0 {
			return fmt.Errorf("wire: op %#x wants an empty payload, got %d bytes", op, len(payload))
		}
	case OpOpen:
		if len(payload) < 8 {
			return fmt.Errorf("wire: OPEN wants a key range, got %d bytes", len(payload))
		}
		r.Key = le.Uint64(payload)
		r.Name = append(r.Name[:0], payload[8:]...)
	case OpReplicate:
		if len(payload) < 12 {
			return fmt.Errorf("wire: REPLICATE wants firstSeq+count, got %d bytes", len(payload))
		}
		n := int(le.Uint32(payload[8:]))
		if n > MaxBatch {
			return fmt.Errorf("wire: replicate run of %d entries exceeds MaxBatch %d", n, MaxBatch)
		}
		// The legacy form is 12+17n bytes; the traced form appends one
		// trace id per entry (12+25n). Both decode here so old and new
		// replication peers interoperate.
		traced := false
		switch len(payload) {
		case 12 + 17*n:
		case 12 + 25*n:
			traced = n > 0
		default:
			return fmt.Errorf("wire: REPLICATE with %d entries wants %d or %d payload bytes, got %d",
				n, 12+17*n, 12+25*n, len(payload))
		}
		for _, k := range payload[12 : 12+n] {
			if k != ReplPut && k != ReplDelete {
				return fmt.Errorf("wire: REPLICATE entry kind %#x unknown", k)
			}
		}
		r.Key = le.Uint64(payload)
		r.Ops = append(r.Ops[:0], payload[12:12+n]...)
		r.Keys = decodeU64s(r.Keys[:0], payload[12+n:12+n+8*n])
		r.Vals = decodeU64s(r.Vals[:0], payload[12+n+8*n:12+n+16*n])
		r.Traces = r.Traces[:0]
		if traced {
			r.Traces = decodeU64s(r.Traces, payload[12+17*n:])
		}
	case OpPromote:
		if len(payload) < 4 {
			return fmt.Errorf("wire: PROMOTE wants an ack count, got %d bytes", len(payload))
		}
		r.Key = uint64(le.Uint32(payload))
		r.Name = append(r.Name[:0], payload[4:]...)
	case OpTraceCtx:
		if len(payload) != 9 {
			return fmt.Errorf("wire: TRACE_CTX wants 9 payload bytes, got %d", len(payload))
		}
		if payload[0] != TraceCtxV1 {
			return fmt.Errorf("wire: TRACE_CTX version %#x unknown", payload[0])
		}
		r.Key = le.Uint64(payload[1:])
	case OpTraceDump:
		if len(payload) != 4 {
			return fmt.Errorf("wire: TRACE_DUMP wants 4 payload bytes, got %d", len(payload))
		}
		r.Key = uint64(le.Uint32(payload))
	default:
		return fmt.Errorf("wire: unknown opcode %#x", op)
	}
	return nil
}

func decodeU64s(dst []uint64, b []byte) []uint64 {
	for len(b) >= 8 {
		dst = append(dst, le.Uint64(b))
		b = b[8:]
	}
	return dst
}

// DecodePoint parses a RespPoint payload. seq is the replication
// sequence number when the server sent the 17-byte seq-carrying form
// (replicated servers), 0 for the standalone 9-byte form.
func DecodePoint(payload []byte) (val uint64, ok bool, seq uint64, err error) {
	switch len(payload) {
	case 9:
		return le.Uint64(payload), payload[8] != 0, 0, nil
	case 17:
		return le.Uint64(payload), payload[8] != 0, le.Uint64(payload[9:]), nil
	}
	return 0, false, 0, fmt.Errorf("wire: point response wants 9 or 17 payload bytes, got %d", len(payload))
}

// DecodeBatch parses a RespBatch payload into vals and oks, which must
// be exactly the request's batch size. seq is the replication sequence
// number when present (replicated servers), 0 otherwise.
func DecodeBatch(payload []byte, vals []uint64, oks []bool) (seq uint64, err error) {
	if len(payload) < 4 {
		return 0, fmt.Errorf("wire: batch response wants a count, got %d bytes", len(payload))
	}
	n := int(le.Uint32(payload))
	switch {
	case n != len(vals):
		return 0, fmt.Errorf("wire: batch response carries %d results, want %d", n, len(vals))
	case len(payload) == 4+9*n:
	case len(payload) == 4+9*n+8:
		seq = le.Uint64(payload[4+9*n:])
	default:
		return 0, fmt.Errorf("wire: batch response carries %d results in %d bytes", n, len(payload))
	}
	body := payload[4:]
	for i := range vals {
		vals[i] = le.Uint64(body[8*i:])
	}
	body = body[8*n:]
	for i := range oks {
		oks[i] = body[i] != 0
	}
	return seq, nil
}

// DecodeChunk parses a RespScanChunk payload, returning whether it is
// the scan's last chunk and the packed pair bytes (16 bytes per pair;
// index them with PairAt).
func DecodeChunk(payload []byte) (last bool, pairs []byte, err error) {
	if len(payload) < 5 {
		return false, nil, fmt.Errorf("wire: scan chunk wants flags+count, got %d bytes", len(payload))
	}
	n := int(le.Uint32(payload[1:]))
	if len(payload) != 5+16*n {
		return false, nil, fmt.Errorf("wire: scan chunk claims %d pairs in %d payload bytes", n, len(payload))
	}
	return payload[0]&ChunkLast != 0, payload[5:], nil
}

// PairAt returns pair i of a chunk's packed pair bytes.
func PairAt(pairs []byte, i int) (k, v uint64) {
	return le.Uint64(pairs[16*i:]), le.Uint64(pairs[16*i+8:])
}

// DecodeStats parses a RespStats payload.
func DecodeStats(payload []byte) (Stats, error) {
	if len(payload) < 82 {
		return Stats{}, fmt.Errorf("wire: stats response wants >= 82 payload bytes, got %d", len(payload))
	}
	var s Stats
	for i, p := range [...]*uint64{&s.KeySum, &s.Scans, &s.Versions,
		&s.ElimInserts, &s.ElimDeletes, &s.ElimUpserts, &s.KeyRange, &s.Gen} {
		*p = le.Uint64(payload[8*i:])
	}
	caps := payload[64]
	s.CanRange = caps&CapRange != 0
	s.CanSnap = caps&CapSnap != 0
	s.CanTrace = caps&CapTrace != 0
	s.Role = payload[65]
	s.Partition = le.Uint64(payload[66:])
	s.ReplSeq = le.Uint64(payload[74:])
	s.Name = string(payload[82:])
	return s, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
