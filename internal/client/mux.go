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
// Shape: the shared connection runs a combiner goroutine and a reader
// goroutine under a supervisor. A caller's point operation parks in a
// pooled muxOp, lands on the connection's buffered submission queue, and
// blocks on its own done channel. The combiner drains the queue, staging
// waiters by opcode class, and seals one batch frame per class (chunked
// at the batch bound). The coalescing window is credit-bounded, not
// timer-bounded: frames are gathered while the pipeline has credit (a
// fixed number of frames in flight), and the combiner only blocks —
// first writing the gathered frames to the wire — when credit runs out.
// Under light load an op ships alone immediately (no fixed sleep, no
// added latency floor); under load the submission queue fills exactly
// while the combiner waits for credit, and the next frame carries
// everything that accumulated — batch size adapts to the arrival rate,
// bounded by muxMaxBatch. The reader completes each waiter from the
// batch response by input position and returns the frame's credit.
//
// The shared connection carries only coalesced point frames. Explicit
// dict.Batcher calls and scans ride each mux handle's side handle: a
// plain handle on a connection of its own, dialed on first use through
// the Client's retry policy. A batch is already a batch (re-coalescing
// it would only add copying), a scan streams and would head-of-line
// block the shared pipe, and the plain handle already keeps equal keys
// in input order across a batch's frames.
//
// Fault tolerance: when the shared connection dies, the supervisor stops
// both loops, salvages the in-flight state, redials with the Client's
// backoff policy, and restarts a fresh generation. Salvage follows the
// same ambiguity contract as plain handles (see retry.go): staged
// waiters that never reached a frame are re-enqueued verbatim; in-flight
// GET/MGET frames are idempotent and re-enqueued too; in-flight
// mutation frames may have reached the server, so their waiters complete
// with ErrAmbiguous (a BUSY rejection re-enqueues everything — the
// rejecting server read nothing). dict.Handle methods panic on
// ErrAmbiguous or exhausted retries; the Try* methods surface the error.
//
// Allocation discipline: muxOps live in their handles, frames and
// response scratch are pooled by the connection, and the submission
// path is channel sends of pooled pointers — a warmed-up per-key
// operation through the mux allocates nothing on either endpoint
// (enforced by internal/server's TestAllocsMux).

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

const (
	// muxMaxBatch caps how many waiters one coalesced frame carries,
	// bounding the per-frame service time a coalesced op can be charged
	// for.
	muxMaxBatch = 512
	// muxWindow is the connection's credit: how many frames may be in
	// flight before the combiner blocks. The window is what turns
	// backpressure into batching — while the combiner waits for credit,
	// arriving ops pile into the next frame. A frame's credit is its
	// response-matching slot, carried in the low muxSlotBits of its id.
	muxSlotBits = 3
	muxWindow   = 1 << muxSlotBits
	muxSlotMask = muxWindow - 1

	muxSubDepth = 4096 // submission queue depth
)

// Mux is a shared-connection coalescing client. It implements dict.Dict
// (plus dict.RQStatser and dict.ElimStatser) exactly like Client, so
// bench.NewDict can hand it to every workload unchanged; control-plane
// operations (STATS, OPEN, KeySum) and each handle's batches and scans
// ride a plain Client under the hood.
type Mux struct {
	c     *Client  // control plane + side handles (batches, scans)
	mc    *muxConn // the shared data connection
	nhand atomic.Uint64

	inflight metrics.Gauge     // point ops submitted, not yet completed
	coalesce metrics.Histogram // waiters per coalesced point frame

	closeOnce sync.Once
	closeErr  error
}

// DialMux connects a Mux to an abtree server: the shared data
// connection plus a Client (dialed with cfg) for control, batches and
// scans.
func DialMux(addr string, cfg Config) (*Mux, error) {
	c, err := DialConfig(addr, cfg)
	if err != nil {
		return nil, err
	}
	m := &Mux{c: c}
	if m.mc, err = m.dialConn(addr); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: mux dial %s: %w", addr, err)
	}
	return m, nil
}

// Close tears down the shared connection and the control client. It
// must not race in-flight operations (finish or abandon your workers
// first — the dict contract's quiescence rule, extended to teardown).
func (m *Mux) Close() error {
	m.closeOnce.Do(func() {
		m.mc.closed.Store(true)
		close(m.mc.quit)
		m.mc.closeConn()
		m.closeErr = m.c.Close()
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
// client: redials, retries, ambiguous completions, BUSY rejections).
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
// resVal/resOk). done is buffered so the completer never blocks. resErr
// carries a fault-path failure (ErrAmbiguous, an application respError,
// or a terminal reconnect failure) to the submitting goroutine.
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

// muxFrame is one in-flight frame's completion state: the waiters to
// scatter its coalesced response into. Pooled by the connection.
type muxFrame struct {
	id      uint64
	waiters []*muxOp
	vals    []uint64 // response decode scratch
	oks     []bool
}

// muxGen is one connection generation's control surface: the combiner
// and reader of a generation exit when stop closes, reporting the first
// failure on errc.
type muxGen struct {
	stop chan struct{}
	errc chan error
	wg   sync.WaitGroup
}

func (g *muxGen) fail(err error) {
	select {
	case g.errc <- err:
	default:
	}
}

// errProtocol marks a generation ended by a response the wire contract
// rules out — a bug on one side of the connection, not a transport
// failure. The supervisor counts and logs the two apart.
var errProtocol = errors.New("protocol violation")

// errGenStopped is the combiner's silent exit signal (the generation is
// being torn down by the supervisor; nothing is wrong with this loop).
var errGenStopped = errors.New("generation stopped")

// muxConn is the shared connection: a combiner goroutine owning the
// write side (staging, framing, credit) and a reader goroutine owning
// the read side (matching responses by id, completing waiters,
// returning credit), restarted across reconnects by a supervisor that
// owns the socket and all inter-generation state.
type muxConn struct {
	m    *Mux
	addr string // redial target

	ncMu sync.Mutex
	nc   net.Conn
	fr   *wire.FrameReader

	subq    chan *muxOp
	quit    chan struct{}
	closed  atomic.Bool
	failed  chan struct{} // closed on terminal reconnect failure
	failErr error         // set before failed closes

	// credits holds the free response slots, 0..muxWindow-1: taking a
	// credit is taking the slot the frame's reply will be matched in.
	credits chan uint64
	slots   [muxWindow]atomic.Pointer[muxFrame]
	frees   chan *muxFrame

	rng *xrand.Rand // supervisor backoff jitter

	id uint64 // combiner-owned frame sequence; ids are id<<muxSlotBits | slot

	// Combiner staging and scratch (supervisor-owned between generations).
	points [3][]*muxOp // staged waiters by class (get/put/delete)
	keyBuf []uint64
	valBuf []uint64
	wbuf   []byte // frames gathered since the last write
}

func (m *Mux) dialConn(addr string) (*muxConn, error) {
	nc, err := net.DialTimeout("tcp", addr, m.c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	mc := &muxConn{
		m:       m,
		addr:    addr,
		nc:      nc,
		fr:      wire.NewFrameReader(nc),
		subq:    make(chan *muxOp, muxSubDepth),
		quit:    make(chan struct{}),
		failed:  make(chan struct{}),
		credits: make(chan uint64, muxWindow),
		frees:   make(chan *muxFrame, muxWindow+1), // one per slot + the one being sealed
		rng:     newRetryRNG(1 << 20),
	}
	mc.fillCredits()
	go mc.supervise()
	return mc, nil
}

// fillCredits frees every response slot. The credit channel must be
// empty and no frame in flight.
func (mc *muxConn) fillCredits() {
	for slot := 0; slot < muxWindow; slot++ {
		mc.credits <- uint64(slot)
	}
}

func (mc *muxConn) closeConn() {
	mc.ncMu.Lock()
	if mc.nc != nil {
		mc.nc.Close()
	}
	mc.ncMu.Unlock()
}

func (mc *muxConn) setConn(nc net.Conn) {
	mc.ncMu.Lock()
	mc.nc = nc
	mc.ncMu.Unlock()
	mc.fr.Reset(nc)
}

// supervise runs connection generations: start combiner+reader, wait
// for the first failure, stop both, salvage in-flight state, redial,
// repeat. Deliberate Close exits; exhausted redials fail the connection
// terminally (every parked and future op completes with the error).
func (mc *muxConn) supervise() {
	for {
		g := &muxGen{stop: make(chan struct{}), errc: make(chan error, 2)}
		g.wg.Add(2)
		go func() { defer g.wg.Done(); mc.combiner(g) }()
		go func() { defer g.wg.Done(); mc.reader(g) }()
		var genErr error
		select {
		case genErr = <-g.errc:
		case <-mc.quit:
		}
		close(g.stop)
		mc.closeConn() // unblock whichever loop is still in I/O
		g.wg.Wait()
		if mc.closed.Load() {
			return // deliberate Close; Close's contract says no in-flight ops
		}
		faults := &mc.m.c.faults
		busy := false
		switch {
		case errors.Is(genErr, errBusy):
			// A BUSY rejection arrives at accept time, before the server
			// reads anything — every in-flight frame (mutations included)
			// is safe to replay on the next connection.
			busy = true
			faults.busy.Add(1)
		case errors.Is(genErr, errProtocol):
			faults.muxProtocol.Add(1)
			log.Printf("client: mux conn: %v", genErr)
		default:
			faults.muxTransport.Add(1)
		}
		mc.salvage(busy, genErr)
		if err := mc.redial(); err != nil {
			mc.failTerminal(fmt.Errorf("client: mux conn: reconnect: %w (after %v)", err, genErr))
			return
		}
	}
}

// salvage reclaims every in-flight frame after a generation died:
// idempotent waiters (GET) are re-staged for the next generation,
// mutation waiters complete with ErrAmbiguous naming cause, the error
// that ended the generation (their frame may have reached the server),
// unless requeueAll says the server never read them. Credits are reset
// to a full window; staged-but-never-framed waiters are already in the
// staging arrays and simply carry over.
func (mc *muxConn) salvage(requeueAll bool, cause error) {
	ambiguous := 0
	for i := range mc.slots {
		f := mc.slots[i].Load()
		if f == nil {
			continue
		}
		mc.slots[i].Store(nil)
		for _, o := range f.waiters {
			if requeueAll || o.op == wire.OpGet {
				cls := pointClass(o.op)
				mc.points[cls] = append(mc.points[cls], o)
			} else {
				o.resErr = fmt.Errorf("%w (mux conn, op %#x): %v", ErrAmbiguous, o.op, cause)
				ambiguous++
				o.done <- struct{}{}
			}
		}
		f.waiters = f.waiters[:0]
		mc.putFrame(f)
	}
	if ambiguous > 0 {
		mc.m.c.faults.ambiguous.Add(uint64(ambiguous))
	}
	for drained := false; !drained; {
		select {
		case <-mc.credits:
		default:
			drained = true
		}
	}
	mc.fillCredits()
}

// redial reconnects the shared connection under the Client's backoff
// policy.
func (mc *muxConn) redial() error {
	cfg := mc.m.c.cfg
	for attempt := 0; ; attempt++ {
		if mc.closed.Load() {
			return errClientClosed
		}
		nc, err := net.DialTimeout("tcp", mc.addr, cfg.DialTimeout)
		if err == nil {
			mc.setConn(nc)
			mc.m.c.faults.redials.Add(1)
			return nil
		}
		if attempt >= cfg.RetryAttempts {
			return err
		}
		mc.m.c.backoff(attempt, mc.rng)
	}
}

// failTerminal completes every parked waiter with err and fails all
// future submissions until Close.
func (mc *muxConn) failTerminal(err error) {
	mc.failErr = err
	close(mc.failed)
	for cls := range mc.points {
		for _, o := range mc.points[cls] {
			o.resErr = err
			o.done <- struct{}{}
		}
		mc.points[cls] = mc.points[cls][:0]
	}
	for {
		select {
		case o := <-mc.subq:
			o.resErr = err
			o.done <- struct{}{}
		case <-mc.quit:
			return
		}
	}
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

// staged reports how many waiters are parked in the staging arrays
// (non-zero right after a salvage carried work into this generation).
func (mc *muxConn) staged() int {
	n := 0
	for cls := range mc.points {
		n += len(mc.points[cls])
	}
	return n
}

// combiner drains the submission queue into frames: block for the first
// op (unless salvage left work staged), then greedily stage everything
// already queued, then flush. Flush blocks on credit only after writing
// the gathered frames to the wire, so backpressure turns directly into
// larger next-round batches.
func (mc *muxConn) combiner(g *muxGen) {
	for {
		if mc.staged() == 0 {
			select {
			case op := <-mc.subq:
				mc.stage(op)
			case <-g.stop:
				return
			case <-mc.quit:
				return
			}
		}
		full := false
		for !full {
			select {
			case op := <-mc.subq:
				full = mc.stage(op)
			default:
				full = true
			}
		}
		if err := mc.flush(g); err != nil {
			if !errors.Is(err, errGenStopped) {
				g.fail(err)
			}
			return
		}
	}
}

// stage parks one op in its class, reporting whether any class hit its
// frame bound (time to flush even though the queue may be non-empty).
func (mc *muxConn) stage(op *muxOp) bool {
	cls := pointClass(op.op)
	mc.points[cls] = append(mc.points[cls], op)
	return len(mc.points[cls]) >= muxMaxBatch
}

// flush seals every staged class into frames (chunked at muxMaxBatch —
// salvage can stage more than one frame's worth), gathers them and
// writes them to the socket. Waiters move out of the staging arrays the
// moment their frame is sealed, so a mid-flush failure leaves each op
// in exactly one place: its frame's slot (salvaged as in-flight) or the
// staging array (carried to the next generation untouched).
func (mc *muxConn) flush(g *muxGen) error {
	for cls := range mc.points {
		for len(mc.points[cls]) > 0 {
			ops := mc.points[cls]
			n := min(len(ops), muxMaxBatch)
			f := mc.getFrame()
			f.waiters = append(f.waiters[:0], ops[:n]...)
			mc.points[cls] = append(ops[:0], ops[n:]...) // keep remainder staged
			mc.keyBuf = mc.keyBuf[:0]
			for _, o := range f.waiters {
				mc.keyBuf = append(mc.keyBuf, o.key)
			}
			var vals []uint64
			op := pointBatchOp[cls]
			if op == wire.OpMPut {
				mc.valBuf = mc.valBuf[:0]
				for _, o := range f.waiters {
					mc.valBuf = append(mc.valBuf, o.val)
				}
				vals = mc.valBuf
			}
			mc.m.coalesce.Record(0, uint64(len(f.waiters)))
			if err := mc.writeFrame(g, f, op, mc.keyBuf, vals); err != nil {
				return err
			}
		}
	}
	return mc.writeOut()
}

// writeOut writes the gathered frames.
func (mc *muxConn) writeOut() error {
	if len(mc.wbuf) == 0 {
		return nil
	}
	_, err := mc.nc.Write(mc.wbuf)
	mc.wbuf = mc.wbuf[:0]
	return err
}

// acquireCredit takes one free response slot. If none is free it first
// writes the gathered frames — frames not yet written earn no
// responses, and blocking on credit with the whole window gathered
// would deadlock — then blocks until the reader returns one.
func (mc *muxConn) acquireCredit(g *muxGen) (slot uint64, err error) {
	select {
	case slot = <-mc.credits:
		return slot, nil
	default:
	}
	if err := mc.writeOut(); err != nil {
		return 0, err
	}
	select {
	case slot = <-mc.credits:
		return slot, nil
	case <-g.stop:
		return 0, errGenStopped
	case <-mc.quit:
		return 0, errGenStopped
	}
}

// writeFrame installs the frame in its response slot and gathers it
// (written by the caller, by credit pressure, or once 64 KB gather).
// Slots cannot collide however the server orders its replies: the slot
// is the credit itself, carried in the id's low bits, and only the
// reader frees it, after the frame's own response; salvage empties the
// table between generations. A frame carrying traced waiters is
// announced by one OpTraceCtx frame (the first traced waiter's id — the
// server holds one pending trace per connection) and closes each traced
// waiter's mux-stage span here, at seal time.
func (mc *muxConn) writeFrame(g *muxGen, f *muxFrame, op byte, keys, vals []uint64) error {
	slot, err := mc.acquireCredit(g)
	if err != nil {
		// Never entered a slot: put the frame's waiters back in staging
		// so they carry to the next generation (or terminal failure).
		mc.unseal(f)
		return err
	}
	mc.id++
	f.id = mc.id<<muxSlotBits | slot
	mc.slots[slot].Store(f)
	tid := mc.sealSpans(f)
	if tid != 0 {
		mc.wbuf = wire.AppendTraceCtx(mc.wbuf, f.id, tid)
	}
	mc.wbuf = wire.AppendBatch(mc.wbuf, f.id, op, keys, vals)
	if len(mc.wbuf) >= 64<<10 {
		return mc.writeOut()
	}
	return nil
}

// sealSpans records a mux-stage span (submit → frame seal, Aux = the
// frame's waiter count) for every traced waiter of a sealing frame and
// returns the trace id the frame should announce: the first traced
// waiter's (only one trace can own the server-side request). 0 allocs
// on the untraced path.
func (mc *muxConn) sealSpans(f *muxFrame) uint64 {
	var first, sealNs uint64
	for _, o := range f.waiters {
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
		mc.m.c.tracer.Record(0, trace.Span{
			TraceID: o.trace, Kind: trace.KindMuxStage, Op: o.op,
			Start: uint64(o.submitT), Dur: dur, Aux: uint64(len(f.waiters)),
		})
	}
	return first
}

// unseal returns a sealed-but-not-installed frame's waiters to staging.
func (mc *muxConn) unseal(f *muxFrame) {
	for _, o := range f.waiters {
		cls := pointClass(o.op)
		mc.points[cls] = append(mc.points[cls], o)
	}
	f.waiters = f.waiters[:0]
	mc.putFrame(f)
}

// reader matches response frames to in-flight state by echoed id,
// completes every waiter, recycles the frame and returns its credit.
// Transport and protocol failures end the generation; application-level
// RespError frames fail only their own waiters (the connection stays
// healthy).
func (mc *muxConn) reader(g *muxGen) {
	for {
		id, rop, payload, err := mc.fr.Next()
		if errors.Is(err, wire.ErrFrameLength) {
			err = fmt.Errorf("%w: %v", errProtocol, err)
		}
		if err != nil {
			g.fail(err)
			return
		}
		if rop == wire.RespBusy {
			g.fail(errBusy)
			return
		}
		slot := id & muxSlotMask
		f := mc.slots[slot].Load()
		if f == nil || f.id != id {
			g.fail(fmt.Errorf("%w: response id %d matches no in-flight frame", errProtocol, id))
			return
		}
		var appErr error
		if rop == wire.RespError {
			appErr = respError(payload)
		} else if rop != wire.RespBatch {
			g.fail(fmt.Errorf("%w: unexpected response op %#x", errProtocol, rop))
			return
		}
		n := len(f.waiters)
		if appErr == nil {
			if cap(f.vals) < n {
				f.vals = make([]uint64, n)
				f.oks = make([]bool, n)
			}
			// The mux targets standalone servers; a replication seq, if
			// present, is dropped (routing clients use per-goroutine
			// handles, which track it).
			if _, err := wire.DecodeBatch(payload, f.vals[:n], f.oks[:n]); err != nil {
				g.fail(fmt.Errorf("%w: %v", errProtocol, err))
				return
			}
		}
		vals, oks := f.vals[:cap(f.vals)], f.oks[:cap(f.oks)]
		for i, o := range f.waiters {
			if appErr == nil {
				o.resVal, o.resOk, o.resErr = vals[i], oks[i], nil
			} else {
				o.resErr = appErr
			}
			o.done <- struct{}{}
		}
		mc.slots[slot].Store(nil)
		mc.putFrame(f)
		mc.credits <- slot
	}
}

func (mc *muxConn) getFrame() *muxFrame {
	select {
	case f := <-mc.frees:
		return f
	default:
		return &muxFrame{}
	}
}

func (mc *muxConn) putFrame(f *muxFrame) {
	select {
	case mc.frees <- f:
	default:
	}
}

// muxHandle is a per-goroutine accessor whose point ops are
// multiplexed onto the shared connection. Not safe for concurrent use,
// like every dict.Handle — the sharing happens below it, in the
// connection.
type muxHandle struct {
	meter
	m    *Mux
	op   muxOp   // reused point-op parking slot
	side *handle // batches and scans (see sideHandle)
}

// submit parks o on the shared connection and blocks until it is
// completed (possibly with o.resErr set). On a terminally failed
// connection the op completes locally with the terminal error.
func (h *muxHandle) submit(o *muxOp) {
	o.resErr = nil
	select {
	case h.m.mc.subq <- o:
	case <-h.m.mc.quit:
		panic("client: mux: operation on closed mux")
	case <-h.m.mc.failed:
		o.resErr = h.m.mc.failErr
		return
	}
	<-o.done
}

func (h *muxHandle) tryPoint(opcode byte, key, val uint64) (uint64, bool, error) {
	t0, tid := h.start()
	h.m.inflight.Add(h.hint, 1)
	o := &h.op
	o.op, o.key, o.val = opcode, key, val
	o.trace, o.submitT = tid, t0.UnixNano()
	h.submit(o)
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
