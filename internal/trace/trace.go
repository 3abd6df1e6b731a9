// Package trace is the request-scoped tracing substrate of the network
// service layer: fixed-size spans recorded into cache-line-padded
// per-worker ring buffers (the internal/metrics striping discipline),
// tail-based retention of the slowest traces per opcode, and a dump
// view the OpTraceDump wire operation and /debug/traces endpoint
// serialize.
//
// A trace is a 64-bit id minted by the issuing client and propagated
// with the request across every hop (OpTraceCtx frames on the wire,
// trace-id columns in REPLICATE log entries), so one id collects spans
// from the client, the primary and its followers. Spans are where/when
// records, not a tree: Kind says which stage of the pipeline the span
// measures (client RPC, mux stage-wait, server queue-wait, worker
// service, replication ship, commit wait, follower apply), Start/Dur
// place it in wall time, and Aux carries per-kind detail
// (coalesced-frame membership, replication seq).
//
// Recording costs one short critical section on an uncontended
// per-worker stripe and allocates nothing (TestAllocsTrace* gates the
// warmed point path at 0 allocs/op with tracing on). A stripe's ~80 KB
// ring is allocated on the first span recorded into it (one
// CompareAndSwap publishes it), so an untraced server or client never
// allocates a ring and a traced one pays only for the stripes its hints
// reach. Reading (Dump) is snapshot-rate: it copies the rings under
// their locks and groups spans by trace id, slowest-retained traces
// first.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Span kinds: which stage of a request's journey the span measures.
const (
	KindClient    = 0x01 // whole client RPC, issue to response decode
	KindMuxStage  = 0x02 // mux: submit to coalesced-frame seal (Aux = waiters in frame)
	KindQueueWait = 0x03 // server: decoded to picked up by a worker
	KindService   = 0x04 // server: worker executing the op
	// 0x05 is unassigned: dumps from older servers may still carry it.
	KindReplShip   = 0x06 // primary: log append to first covering REPL_ACK (Aux = seq)
	KindCommitWait = 0x07 // primary: blocked until commit position covered the op (Aux = seq)
	KindApply      = 0x08 // follower: applying the shipped entry (Aux = seq)
)

// KindName returns the human-readable name of a span kind.
func KindName(kind byte) string {
	switch kind {
	case KindClient:
		return "client"
	case KindMuxStage:
		return "mux-stage"
	case KindQueueWait:
		return "queue-wait"
	case KindService:
		return "service"
	case KindReplShip:
		return "repl-ship"
	case KindCommitWait:
		return "commit-wait"
	case KindApply:
		return "apply"
	}
	return "unknown"
}

// Span is one fixed-size trace record. Start is unix nanoseconds, Dur
// nanoseconds; Op is the wire opcode the span served (0 where no single
// opcode applies, e.g. follower applies).
type Span struct {
	TraceID uint64
	Start   uint64
	Dur     uint64
	Aux     uint64
	Kind    byte
	Op      byte
}

// NumShards is the ring-stripe count (hints reduce mod NumShards, like
// internal/metrics; the server passes worker indexes, clients a handle
// number).
const NumShards = 8

const hintMask = NumShards - 1

// RingSize is the span capacity of one stripe (a power of two). Old
// spans are overwritten; a dump sees at most NumShards*RingSize recent
// spans, which at trace-smoke rates covers several seconds of traffic.
const RingSize = 2048

// SlowPerOp is how many slowest traces are retained per opcode by tail
// sampling.
const SlowPerOp = 8

// slowOps is the number of distinct opcodes the tail sampler tracks
// (indexed by slowSlot below).
const slowOps = 8

// slowSlot maps a wire opcode to a tail-sampler table (-1: not tail
// sampled). The opcodes mirror the server's per-op service histograms:
// point ops, batches, scans.
func slowSlot(op byte) int {
	switch op {
	case 0x01: // OpGet
		return 0
	case 0x02: // OpPut
		return 1
	case 0x03: // OpDelete
		return 2
	case 0x10: // OpMGet
		return 3
	case 0x11: // OpMPut
		return 4
	case 0x12: // OpMDelete
		return 5
	case 0x20: // OpScan
		return 6
	case 0x21: // OpSnapScan
		return 7
	}
	return -1
}

// ringShard is one stripe: a fixed span ring under a short mutex,
// padded so a stripe never shares a cache line with its heap neighbour.
// (A mutex rather than bare atomics because Dump must read whole
// 48-byte spans torn-free while writers keep recording.)
type ringShard struct {
	mu   sync.Mutex
	next uint64
	ring [RingSize]Span
	_    [64]byte
}

// slowEntry is one tail-sampled trace: id and the duration that ranked
// it. Only ids are retained — the spans live in the rings.
type slowEntry struct {
	id  uint64
	dur uint64
}

// slowTable retains the SlowPerOp slowest traces of one opcode. min is
// the current admission threshold, checked with one atomic load on the
// hot path; the mutex is only taken when a trace actually ranks.
type slowTable struct {
	min     atomic.Uint64 // smallest retained dur once the table is full
	mu      sync.Mutex
	entries [SlowPerOp]slowEntry
	n       int
}

// Collector owns the span rings and tail-sample tables for one process
// role (one per server, one per client). The zero value is NOT ready;
// use New. Rings are allocated on their first span.
type Collector struct {
	shards [NumShards]atomic.Pointer[ringShard]
	slow   [slowOps]slowTable
}

// New returns an empty collector.
func New() *Collector { return new(Collector) }

// Record appends one span via the hinted stripe. Spans with TraceID 0
// are dropped (0 means "untraced" everywhere). 0 allocs.
func (c *Collector) Record(hint int, s Span) {
	if c == nil || s.TraceID == 0 {
		return
	}
	i := uint(hint) & hintMask
	sh := c.shards[i].Load()
	if sh == nil {
		sh = c.install(i)
	}
	sh.mu.Lock()
	sh.ring[sh.next&(RingSize-1)] = s
	sh.next++
	sh.mu.Unlock()
}

// install publishes ring i on its first span. Racing first writers each
// offer a ring; one CompareAndSwap wins and every writer records into
// the winner, so no span lands in a discarded ring. It is kept out of
// line so that Record's body is only the hot path.
//
//go:noinline
func (c *Collector) install(i uint) *ringShard {
	c.shards[i].CompareAndSwap(nil, new(ringShard))
	return c.shards[i].Load()
}

// RecordTail offers a completed request to the tail sampler: if dur
// ranks among the slowest SlowPerOp of its opcode, the trace id is
// retained and its spans are flagged slow in dumps. The fast path is
// one atomic load. 0 allocs.
func (c *Collector) RecordTail(op byte, traceID, dur uint64) {
	if c == nil || traceID == 0 {
		return
	}
	slot := slowSlot(op)
	if slot < 0 {
		return
	}
	t := &c.slow[slot]
	if dur <= t.min.Load() {
		return
	}
	t.mu.Lock()
	if t.n < SlowPerOp {
		t.entries[t.n] = slowEntry{id: traceID, dur: dur}
		t.n++
	} else {
		// Replace the smallest retained entry (dur > min guarantees one).
		mi := 0
		for i := 1; i < t.n; i++ {
			if t.entries[i].dur < t.entries[mi].dur {
				mi = i
			}
		}
		if dur > t.entries[mi].dur {
			t.entries[mi] = slowEntry{id: traceID, dur: dur}
		}
	}
	if t.n == SlowPerOp {
		mi := 0
		for i := 1; i < t.n; i++ {
			if t.entries[i].dur < t.entries[mi].dur {
				mi = i
			}
		}
		t.min.Store(t.entries[mi].dur)
	}
	t.mu.Unlock()
}

// Trace is one dumped trace: every span the rings still hold for its
// id, in recording order per stripe (merged by Start).
type Trace struct {
	TraceID uint64
	Slow    bool   // retained by tail sampling
	Dur     uint64 // the tail sampler's ranking duration (slow traces only)
	Spans   []Span
}

// Dump snapshots the collector: up to max traces (0 = DefaultDumpMax),
// tail-sampled slow traces first (slowest first), then the most
// recently recorded of the rest. Dump allocates; it is the
// snapshot-rate read path, never the record path.
func (c *Collector) Dump(max int) []Trace {
	if c == nil {
		return nil
	}
	if max <= 0 {
		max = DefaultDumpMax
	}

	// Copy the rings stripe by stripe under their locks, skipping rings
	// no span ever reached.
	spans := make([]Span, 0, 256)
	for i := range c.shards {
		sh := c.shards[i].Load()
		if sh == nil {
			continue
		}
		sh.mu.Lock()
		n := sh.next
		if n > RingSize {
			n = RingSize
		}
		for j := uint64(0); j < n; j++ {
			spans = append(spans, sh.ring[j])
		}
		sh.mu.Unlock()
	}

	// Snapshot the tail-sample tables.
	type slowRec struct {
		id, dur uint64
	}
	var slows []slowRec
	for i := range c.slow {
		t := &c.slow[i]
		t.mu.Lock()
		for _, e := range t.entries[:t.n] {
			slows = append(slows, slowRec{e.id, e.dur})
		}
		t.mu.Unlock()
	}

	// Group spans by trace id; remember each trace's latest span start
	// for recency ordering.
	byID := make(map[uint64]*Trace)
	order := make([]*Trace, 0, 64)
	for _, s := range spans {
		tr := byID[s.TraceID]
		if tr == nil {
			tr = &Trace{TraceID: s.TraceID}
			byID[s.TraceID] = tr
			order = append(order, tr)
		}
		tr.Spans = append(tr.Spans, s)
	}
	for _, sr := range slows {
		if tr := byID[sr.id]; tr != nil {
			tr.Slow = true
			if sr.dur > tr.Dur {
				tr.Dur = sr.dur
			}
		}
	}
	for _, tr := range order {
		sort.Slice(tr.Spans, func(a, b int) bool { return tr.Spans[a].Start < tr.Spans[b].Start })
	}

	// Slow traces first (slowest first), then the rest by most recent
	// span start.
	latest := func(tr *Trace) uint64 {
		if len(tr.Spans) == 0 {
			return 0
		}
		return tr.Spans[len(tr.Spans)-1].Start
	}
	sort.SliceStable(order, func(a, b int) bool {
		ta, tb := order[a], order[b]
		if ta.Slow != tb.Slow {
			return ta.Slow
		}
		if ta.Slow {
			return ta.Dur > tb.Dur
		}
		return latest(ta) > latest(tb)
	})
	if len(order) > max {
		order = order[:max]
	}
	out := make([]Trace, len(order))
	for i, tr := range order {
		out[i] = *tr
	}
	return out
}

// DefaultDumpMax is the trace count a dump returns when the caller
// passes no cap (the OpTraceDump max=0 default).
const DefaultDumpMax = 64
