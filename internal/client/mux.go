package client

// Dynamic request coalescing — the request path's one coalescer: a Mux
// multiplexes any number of concurrent dict.Handle callers onto one
// shared TCP connection, transparently merging their per-key
// Get/Put/Delete calls into MGET/MPUT/MDELETE frames. (One connection,
// because a second one splits the arrival stream and was no faster at
// any measured fan-in; with one or two callers a plain Client's
// thread-bound handles beat the mux — see EXPERIMENTS.md "Request path
// settled".)
//
// Shape: the shared connection is a plain handle, and one combiner
// goroutine is its only user. A caller's point operation parks in its
// handle's muxOp, lands on the buffered submission queue, and blocks on
// its own done channel. The combiner runs one pass at a time: it drains
// the queue into staging by opcode class, takes up to muxMaxBatch
// waiters of each class (GETs, then PUTs, then DELETEs; the rest wait for
// the next pass), writes the pass's class frames together and reads
// their replies in order, completing each frame's waiters as its reply
// arrives. Ops that arrive during a pass wait in the queue and ride the
// next one, so batch size follows the arrival rate over one round trip:
// under light load an op ships alone at once (no timer, no added latency
// floor), under load each pass carries what accumulated during the last.
//
// A pass writes at most three frames before it reads. Their replies
// total under 14 KB, which the server's send buffer and the mux's
// receive buffer hold between them at Linux's default sizes (and at the
// 16 KB TestBatchSmallSocketBuffers sets), so a server that reads a
// connection's next frame only after writing its replies does not block
// writing while the pass is still writing. Replies come back in the order
// the frames were written: a server answers a connection's frames in the
// order it read them (see internal/wire), so a reply for any frame other
// than the oldest unanswered one is a protocol error (handle.reply).
//
// Fault tolerance: a pass is one request under the plain handle's retry
// loop (retry.go), so the mux has a plain handle's fault model. A pass
// with no PUT or DELETE frame is resent, and so is one that wrote
// nothing or was refused with an admission BUSY. Once a pass's mutation
// frame may have left, its waiters without a reply complete with
// ErrAmbiguous, and its GET waiters without a reply go into the next
// pass. A RespError fails only the waiters of its own frame. Each pass
// gets the full retry budget; one that exhausts it fails its waiters
// with the last error, and the next pass starts afresh, so the mux has
// no terminal state and recovers once the server is back. dict.Handle
// methods panic on a failed op; the Try* methods surface the error.
//
// The shared connection carries only coalesced point frames. Explicit
// dict.Batcher calls and scans ride each mux handle's side handle: a
// plain handle on a connection of its own, dialed on first use through
// the Client's retry policy. A batch is already a batch (re-coalescing
// it would only add copying), a scan streams and would head-of-line
// block the shared pipe, and the plain handle already keeps equal keys
// in input order across a batch's frames.
//
// Allocation discipline: muxOps live in their handles, staging and
// scratch belong to the combiner, and a pass starts no goroutine — a
// warmed-up per-key operation through the mux allocates nothing on
// either endpoint (enforced by internal/server's TestAllocsMux).

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// muxMaxBatch caps how many waiters of one class a pass carries,
	// bounding the per-frame service time a coalesced op can be charged
	// for and the size of a pass's replies.
	muxMaxBatch = 512
	muxSubDepth = 4096 // submission queue depth
)

// Mux is a shared-connection coalescing client. It implements dict.Dict
// (plus dict.RQStatser and dict.ElimStatser) exactly like Client, so
// bench.NewDict can hand it to every workload unchanged; control-plane
// operations (STATS, OPEN, KeySum) and each handle's batches and scans
// ride a plain Client under the hood.
type Mux struct {
	c     *Client // control plane + side handles (batches, scans)
	h     *handle // the shared connection, used by the combiner alone
	subq  chan *muxOp
	quit  chan struct{} // closed by Close
	gone  chan struct{} // closed by the combiner as it exits
	nhand atomic.Uint64

	inflight metrics.Gauge     // point ops submitted, not yet completed
	coalesce metrics.Histogram // waiters per coalesced point frame

	// Combiner-owned pass state.
	points [3][]*muxOp // staged waiters by class (get/put/delete)
	live   [3][]*muxOp // the running pass's unanswered waiters by class
	tids   [3]uint64   // trace id each of the pass's frames announces
	keyBuf []uint64
	valBuf []uint64
	vals   []uint64 // reply decode scratch
	oks    []bool

	closeOnce sync.Once
	closeErr  error
}

// DialMux connects a Mux to an abtree server: a Client (dialed with cfg)
// for control, batches and scans, then the shared data connection.
func DialMux(addr string, cfg Config) (*Mux, error) {
	c, err := DialConfig(addr, cfg)
	if err != nil {
		return nil, err
	}
	m := &Mux{c: c, subq: make(chan *muxOp, muxSubDepth), quit: make(chan struct{}), gone: make(chan struct{})}
	if m.h, err = c.newHandle(); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: mux dial %s: %w", addr, err)
	}
	go m.combiner()
	return m, nil
}

// Close closes every connection and returns once the combiner has
// exited. It must not race in-flight operations (finish or abandon your
// workers first — the dict contract's quiescence rule, extended to
// teardown).
func (m *Mux) Close() error {
	m.closeOnce.Do(func() {
		close(m.quit)
		m.closeErr = m.c.Close()
		<-m.gone
	})
	return m.closeErr
}

// Name returns the hosted structure's registry name.
func (m *Mux) Name() string { return m.c.Name() }

// Stats fetches the server's STATS snapshot over the control client.
func (m *Mux) Stats() (wire.Stats, error) { return m.c.Stats() }

// Open asks the server to host a fresh structure (see Client.Open).
func (m *Mux) Open(name string, keyRange uint64) error { return m.c.Open(name, keyRange) }

// KeySum returns the hosted structure's key sum (quiescent only).
func (m *Mux) KeySum() uint64 { return m.c.KeySum() }

// RQStats reports the hosted structure's range-query counters.
func (m *Mux) RQStats() (scans, versions uint64) { return m.c.RQStats() }

// ElimStats reports the hosted structure's elimination counters.
func (m *Mux) ElimStats() (inserts, deletes, upserts uint64) { return m.c.ElimStats() }

// RTT snapshots the client-side round-trip histograms (shared with the
// control client's scan handles).
func (m *Mux) RTT() map[string]*metrics.Snapshot { return m.c.RTT() }

// ServerMetrics fetches the server's observability snapshot.
func (m *Mux) ServerMetrics() (*ServerMetrics, error) { return m.c.ServerMetrics() }

// Tracer returns the mux's local span collector (shared with the
// control client; nil unless Config.TraceEvery > 0).
func (m *Mux) Tracer() *trace.Collector { return m.c.Tracer() }

// LocalTraces dumps the client-side trace collector.
func (m *Mux) LocalTraces(max int) []trace.Trace { return m.c.LocalTraces(max) }

// ServerTraces drains the server's trace collector over the control
// connection.
func (m *Mux) ServerTraces(max int) ([]ServerTrace, error) { return m.c.ServerTraces(max) }

// FaultStats snapshots the fault-path counters (shared with the control
// client: redials, retries, ambiguous requests, BUSY rejections).
func (m *Mux) FaultStats() FaultStats { return m.c.FaultStats() }

// CoalesceStats snapshots the client-side coalesce_batch_size
// histogram: how many waiters each coalesced point frame carried.
func (m *Mux) CoalesceStats() *metrics.Snapshot {
	s := new(metrics.Snapshot)
	m.coalesce.Snapshot(s)
	return s
}

// Inflight reports the mux_inflight gauge: point operations submitted
// and not yet completed across every handle (batches and scans ride the
// side handles and are not counted).
func (m *Mux) Inflight() int64 { return m.inflight.Load() }

// NewHandle returns a per-goroutine accessor whose point operations are
// multiplexed onto the shared connection. Handles are cheap — no dial —
// so any number of worker goroutines can share it. The dynamic type
// exposes the hosted structure's scan capabilities, like
// Client.NewHandle; batches and scans ride the handle's side handle,
// whose connection is dialed on first use.
func (m *Mux) NewHandle() dict.Handle {
	h := &muxHandle{meter: meter{c: m.c, hint: int(m.nhand.Add(1))}, m: m}
	h.op.done = make(chan struct{}, 1)
	m.c.mu.Lock()
	caps := m.c.caps
	m.c.mu.Unlock()
	if !caps.CanRange {
		return h
	}
	rh := &muxRangeHandle{h}
	if !caps.CanSnap {
		return rh
	}
	return &muxSnapHandle{muxRangeHandle{h}}
}

// muxOp is one parked point operation (op/key/val, completed into
// resVal/resOk). done is buffered so the combiner never blocks. resErr
// carries a failure (ErrAmbiguous, an application respError, or the
// error that exhausted a pass's retries) to the submitting goroutine.
type muxOp struct {
	op       byte
	key, val uint64

	resVal uint64
	resOk  bool
	resErr error

	trace   uint64 // head-sampled trace id (0: untraced); reset per call
	submitT int64  // submit stamp (unixnano) for the mux-stage span

	done chan struct{}
}

// pointClass maps a point opcode to its staging class.
func pointClass(op byte) int {
	switch op {
	case wire.OpGet:
		return 0
	case wire.OpPut:
		return 1
	}
	return 2 // wire.OpDelete
}

// pointBatchOp is the batch opcode each staging class seals into.
var pointBatchOp = [3]byte{wire.OpMGet, wire.OpMPut, wire.OpMDelete}

// combiner runs passes until Close: it blocks for the first op (unless
// an earlier pass left waiters staged), greedily stages everything
// already queued, and runs one pass. It then yields once, so the callers
// the pass woke can submit their next ops before the queue is drained
// again; without it, passes alternate between the callers that waited
// in the queue and those the last pass woke, carrying half as many ops
// (TestSyscallsPerFrame's mux row read 0.52 reads per GET against 0.34).
func (m *Mux) combiner() {
	defer close(m.gone)
	for {
		if len(m.points[0])+len(m.points[1])+len(m.points[2]) == 0 {
			select {
			case o := <-m.subq:
				m.stage(o)
			case <-m.quit:
				return
			}
		}
		for full := false; !full; {
			select {
			case o := <-m.subq:
				full = m.stage(o)
			default:
				full = true
			}
		}
		m.pass()
		runtime.Gosched()
	}
}

// stage parks one op in its class, reporting whether the class holds a
// full frame (time to run a pass even though the queue may be
// non-empty).
func (m *Mux) stage(o *muxOp) bool {
	cls := pointClass(o.op)
	m.points[cls] = append(m.points[cls], o)
	return len(m.points[cls]) >= muxMaxBatch
}

// pass sends the first muxMaxBatch staged waiters of each class, one
// frame per class, as one request under the handle's retry loop — a
// mutation if it carries a PUT or DELETE frame. Then it unstages them,
// failing the ones left unanswered with the loop's error, except that
// an unanswered GET frame of an ambiguous pass stays staged for the
// next pass.
func (m *Mux) pass() {
	op := byte(wire.OpMGet)
	for cls, staged := range m.points {
		ops := staged[:min(len(staged), muxMaxBatch)]
		m.live[cls], m.tids[cls] = ops, 0
		if len(ops) == 0 {
			continue
		}
		if cls > 0 {
			op = wire.OpMPut
		}
		m.tids[cls] = m.sealSpans(ops)
		m.coalesce.Record(0, uint64(len(ops)))
	}
	taken := m.live // attempt empties a class of live once its frame is answered
	err := m.h.retry(op, m.attempt)
	for cls, ops := range m.live {
		if cls == 0 && len(ops) > 0 && errors.Is(err, ErrAmbiguous) {
			continue // reads are idempotent: they ride the next pass
		}
		m.settle(ops, err)
		m.points[cls] = append(m.points[cls][:0], m.points[cls][len(taken[cls]):]...)
	}
}

// attempt is one try of a pass: it writes the pass's unanswered frames
// in one write and reads their replies in order, settling each frame's
// waiters as its reply arrives, so a retry resends only the frames still
// unanswered. A frame carrying traced waiters is announced by one
// OpTraceCtx frame (the server holds one pending trace per connection).
func (m *Mux) attempt() (wrote bool, err error) {
	h := m.h
	var ids [3]uint64
	h.out = h.out[:0]
	for cls, ops := range m.live {
		if len(ops) == 0 {
			continue
		}
		ids[cls] = h.nextID()
		m.keyBuf, m.valBuf = m.keyBuf[:0], m.valBuf[:0]
		for _, o := range ops {
			m.keyBuf = append(m.keyBuf, o.key)
			m.valBuf = append(m.valBuf, o.val)
		}
		var vals []uint64
		if pointBatchOp[cls] == wire.OpMPut {
			vals = m.valBuf
		}
		if m.tids[cls] != 0 {
			h.out = wire.AppendTraceCtx(h.out, ids[cls], m.tids[cls])
		}
		h.out = wire.AppendBatch(h.out, ids[cls], pointBatchOp[cls], m.keyBuf, vals)
	}
	if n, err := h.nc.Write(h.out); err != nil {
		return n > 0, err
	}
	for cls, ops := range m.live {
		if len(ops) == 0 {
			continue
		}
		n := len(ops)
		if cap(m.vals) < n {
			m.vals, m.oks = make([]uint64, n), make([]bool, n)
		}
		err := h.batchReply(ids[cls], m.vals[:n], m.oks[:n])
		if _, isApp := err.(respError); err != nil && !isApp {
			return true, err
		}
		m.settle(ops, err)
		m.live[cls] = nil
	}
	return true, nil
}

// settle completes waiters: with err when it is non-nil, else from the
// reply scratch by input position.
func (m *Mux) settle(ops []*muxOp, err error) {
	for i, o := range ops {
		if o.resErr = err; err == nil {
			o.resVal, o.resOk = m.vals[i], m.oks[i]
		}
		o.done <- struct{}{}
	}
}

// sealSpans records a mux-stage span (submit → frame staged, Aux = the
// frame's waiter count) for every traced waiter of a frame and returns
// the trace id the frame should announce: the first traced waiter's
// (only one trace can own the server-side request). 0 allocs on the
// untraced path.
func (m *Mux) sealSpans(ops []*muxOp) uint64 {
	var first, sealNs uint64
	for _, o := range ops {
		if o.trace == 0 {
			continue
		}
		if first == 0 {
			first = o.trace
			sealNs = uint64(time.Now().UnixNano())
		}
		var dur uint64
		if st := uint64(o.submitT); sealNs > st {
			dur = sealNs - st
		}
		m.c.tracer.Record(0, trace.Span{
			TraceID: o.trace, Kind: trace.KindMuxStage, Op: o.op,
			Start: uint64(o.submitT), Dur: dur, Aux: uint64(len(ops)),
		})
	}
	return first
}

// muxHandle is a per-goroutine accessor whose point ops are
// multiplexed onto the shared connection. Not safe for concurrent use,
// like every dict.Handle — the sharing happens below it, in the
// combiner.
type muxHandle struct {
	meter
	m    *Mux
	op   muxOp   // reused point-op parking slot
	side *handle // batches and scans (see sideHandle)
}

func (h *muxHandle) tryPoint(opcode byte, key, val uint64) (uint64, bool, error) {
	t0, tid := h.start()
	h.m.inflight.Add(h.hint, 1)
	o := &h.op
	o.op, o.key, o.val = opcode, key, val
	o.trace, o.submitT = tid, t0.UnixNano()
	select {
	case h.m.subq <- o:
	case <-h.m.quit:
		panic("client: mux: operation on closed mux")
	}
	<-o.done
	h.m.inflight.Add(h.hint, -1)
	if o.resErr != nil {
		return 0, false, o.resErr
	}
	h.done(opcode, t0, tid)
	return o.resVal, o.resOk, nil
}

func (h *muxHandle) point(opcode byte, key, val uint64) (uint64, bool) {
	v, ok, err := h.tryPoint(opcode, key, val)
	if err != nil {
		panic(fmt.Sprintf("client: mux point op %#x: %v", opcode, err))
	}
	return v, ok
}

// Find looks up key on the remote structure (coalesced).
func (h *muxHandle) Find(key uint64) (uint64, bool) { return h.point(wire.OpGet, key, 0) }

// Insert inserts <key, val> if absent (coalesced; dict.Handle.Insert
// semantics).
func (h *muxHandle) Insert(key, val uint64) (uint64, bool) { return h.point(wire.OpPut, key, val) }

// Delete removes key if present (coalesced).
func (h *muxHandle) Delete(key uint64) (uint64, bool) { return h.point(wire.OpDelete, key, 0) }

// TryFind is Find with an error result instead of a panic (TryHandle).
func (h *muxHandle) TryFind(key uint64) (uint64, bool, error) {
	return h.tryPoint(wire.OpGet, key, 0)
}

// TryInsert is Insert with an error result; ErrAmbiguous means the
// insert may or may not have been applied.
func (h *muxHandle) TryInsert(key, val uint64) (uint64, bool, error) {
	return h.tryPoint(wire.OpPut, key, val)
}

// TryDelete is Delete with an error result; ErrAmbiguous means the
// delete may or may not have been applied.
func (h *muxHandle) TryDelete(key uint64) (uint64, bool, error) {
	return h.tryPoint(wire.OpDelete, key, 0)
}

// sideHandle returns the plain handle this mux handle's batches and
// scans ride, made on first use. Its connection is dialed by its first
// operation, through the Client's retry policy as a redial is, so a
// batch during a transient outage retries instead of failing at the
// first refused dial.
func (h *muxHandle) sideHandle() *handle {
	if h.side == nil {
		h.side = h.m.c.undialed()
	}
	return h.side
}

// FindBatch looks up keys[i] for every i (dict.Batcher, over the side
// handle).
func (h *muxHandle) FindBatch(keys, vals []uint64, found []bool) {
	h.sideHandle().FindBatch(keys, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher,
// over the side handle).
func (h *muxHandle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	h.sideHandle().InsertBatch(keys, vals, prev, inserted)
}

// DeleteBatch removes keys[i] where present (dict.Batcher, over the
// side handle).
func (h *muxHandle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	h.sideHandle().DeleteBatch(keys, prev, deleted)
}

// muxRangeHandle adds weak scans over the side handle.
type muxRangeHandle struct{ *muxHandle }

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, with whatever atomicity the hosted structure's Range has.
func (h *muxRangeHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	h.sideHandle().scan(false, lo, hi, fn)
}

// muxSnapHandle adds linearizable scans.
type muxSnapHandle struct{ muxRangeHandle }

// RangeSnapshot calls fn for each pair of one atomic snapshot of
// [lo, hi] (the hosted structure's RangeSnapshot).
func (h *muxSnapHandle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	h.sideHandle().scan(true, lo, hi, fn)
}
