// Package server hosts any dict.Dict — single trees and internal/shard
// partitions alike — behind a concurrent TCP endpoint speaking the
// internal/wire protocol: GET/PUT/DELETE, batched MGET/MPUT/MDELETE
// routed straight to dict.Batcher, streamed SCAN/SNAPSHOT_SCAN, and
// STATS/OPEN control operations.
//
// Concurrency model: one goroutine per connection, as in memcached,
// Redis and net/http. dict.Handle is thread-bound, so each connection
// serves on a worker of its own — a handle plus its Batcher and scan
// entry points — attached on its first request and parked for the next
// connection when it closes. The goroutine decodes a frame, serves it,
// appends the reply to the connection's output buffer and moves on:
// requests are served, and answered, in arrival order, so a peer that
// pipelines a mutation and a read of the same key sees the mutation.
// Responses still carry the request's id. One connection is served by
// one core at a time; a many-core server wants many connections (a
// client.Mux multiplexes all of its callers over one, and so runs on
// one server core).
//
// Writes: the output buffer is written once it reaches 64 KB, and
// before every socket read. The frame reader reads only when no whole
// frame is buffered, so a pipelined burst is answered in one write and
// no reply waits behind a blocking read. Scans, METRICS and trace dumps
// stream through the same 64 KB cut.
//
// Allocation discipline: each connection decodes into one reused
// request (key/value scratch included), batch results land in the
// worker's scratch, and replies append to one reused buffer, so the
// warmed-up point-operation path allocates nothing end to end (enforced
// by TestAllocsRemotePointOps).
//
// Flow control and overload: a connection's goroutine reads its next
// frame only after serving the last one, and reads the socket only
// after writing its pending replies, so backpressure is TCP's, per
// connection. A peer that pipelines must therefore read replies while
// it writes (as a client handle's multi-frame batches do), or bound what
// it writes before reading (a client.Mux pass writes at most three
// frames): one that wrote more than the socket buffers hold before
// reading would block both ends in write. A peer that stops reading is
// turned into a dead connection by the write deadline (Server.writeTimeout);
// it holds up only its own goroutine. Admission control is
// Config.MaxConns — the only cap on concurrent operations — and
// Config.RateLimit, both answering BUSY ("nothing was executed"), which
// clients retry after backing off. Merging concurrent callers' point
// operations into batch descents is the client's job (client.Mux).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/treedict"
	"repro/internal/wire"
)

// Builder constructs a named structure sized for keyRange — the
// server-side registry hook (cmd/abtree-server passes internal/bench's
// registry). A Builder may panic on unknown names; the server converts
// the panic into a clean OPEN error response.
type Builder func(name string, keyRange uint64) dict.Dict

// Config tunes a Server.
type Config struct {
	// Logf, when set, receives one structured line per connection
	// teardown (remote address + cause) and per slow operation (see
	// TraceSlow). Nil keeps the server silent, as before.
	Logf func(format string, args ...any)
	// TraceSlow, when positive, logs any operation whose service time
	// reaches it through Logf — the slow-op trace hook.
	TraceSlow time.Duration
	// MaxConns caps concurrently registered connections (0 = unlimited).
	// An accept over the cap is answered with one BUSY frame and closed
	// — admission control at the cheapest possible point: the rejected
	// peer learns immediately (and its client retries with backoff)
	// instead of holding a goroutine and a handle on a server that is
	// already saturated. It is the only cap on concurrent operations.
	// Counted as teardown_max_conns_reject_total.
	MaxConns int
	// IdleTimeout reaps connections that send nothing for this long
	// (0 = never). Only fully idle connections are reaped — a peer that
	// stalls mid-frame is a read error, not an idle one. Counted as
	// teardown_idle_timeout_total. Idle reaping is what keeps MaxConns
	// meaningful when clients crash without closing: abandoned sockets
	// stop counting against the admission cap.
	IdleTimeout time.Duration

	// RateLimit, when positive, is the per-connection token-bucket rate
	// in requests per second; the bucket depth ("burst") is always
	// max(RateLimit, 32). A connection over its budget has single-frame
	// operations (point ops, scans) answered with a BUSY frame echoing
	// the request id — the server read the request and executed nothing,
	// so even a mutation is safe to resend after backing off. Batched
	// frames are charged their full key count but never rejected (a
	// BUSY between a pipeline's replies would leave the client unable to
	// resend on the connection), so heavy batch traffic pushes the
	// bucket into deficit and throttles the connection's subsequent
	// requests instead; the deficit is capped at one extra burst so a
	// run of large batches delays later single-frame ops by at most
	// 2*burst/rate (2s at 32 rps and up) rather than without bound.
	// Control (STATS/METRICS/OPEN) and replication frames are exempt.
	// Counted as rate_limited_total.
	RateLimit float64

	// Replication. A server with Followers (primary) or Follower=true
	// (replica) is one member of a replicated partition: see repl.go for
	// the model. Partition is the partition index reported via STATS so
	// routing clients can match replicas to keyspace ranges. AckFollowers
	// is how many followers must apply a mutation before the client is
	// acked (default 1 — sync-1; clamped to len(Followers); negative
	// means ack immediately). Replicated servers reject OPEN (the log is
	// tied to the hosted generation) and serve mutations through the
	// sequenced-log write path.
	Followers    []string
	Follower     bool
	AckFollowers int
	Partition    uint64
}

// outCut is the size at which a connection's pending replies are
// written without waiting for its next read.
const outCut = 64 << 10

// hosted is one generation of the served dictionary. OPEN installs a
// fresh generation; workers lazily re-attach (new handle, new Batcher,
// new scan entry points) when they observe the pointer changed, and
// in-flight operations on the old generation finish on the old handles.
type hosted struct {
	d        dict.Dict
	name     string
	keyRange uint64
	gen      uint64
	canRange bool
	canSnap  bool
}

// Server serves one dictionary over TCP.
type Server struct {
	build Builder
	// writeTimeout bounds how long a socket write may sit without
	// progress (always one minute; a field only so the in-package test
	// can shorten it). It is the stalled-peer backstop: a connection's
	// goroutine writes its own replies, which is fine while the peer
	// consumes, but a peer that stops reading mid-stream would otherwise
	// park that goroutine, and its handle, forever. The deadline turns a
	// stalled connection into a dead one. It is re-armed only once less
	// than half of it remains (a SetWriteDeadline costs several
	// time.Nows), so a stalled write fails after between ½ and 1 ×
	// writeTimeout.
	writeTimeout time.Duration
	logf         func(format string, args ...any)
	traceSlow    time.Duration
	maxConns     int
	idleTimeout  time.Duration
	rateLimit    float64
	rateBurst    float64 // token-bucket depth, max(rateLimit, 32)

	// repl is the replication state; nil on standalone servers (every
	// replication hook checks for nil, keeping the standalone paths
	// byte-identical).
	repl *replState

	// tracer collects request-scoped spans (internal/trace). Always
	// present; it records nothing until a connection ships an OpTraceCtx
	// frame, so untraced traffic pays one predictable branch per request,
	// and it allocates no span ring until a traced request records into
	// one.
	tracer *trace.Collector

	metrics srvMetrics

	cur      atomic.Pointer[hosted]
	gen      atomic.Uint64
	draining atomic.Bool

	openMu sync.Mutex // serializes OPEN rebuilds

	mu     sync.Mutex
	l      net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	// spare holds the workers of closed connections, for the next
	// connection to reuse: a handle may register with its tree for good
	// (pabtree's epoch manager), so handles follow the peak connection
	// count, not the connection churn. made counts the workers ever made.
	spare []*worker
	made  int
	// wg counts the accept loop and every connection's goroutine: Close
	// returns only once no request runs anywhere.
	wg sync.WaitGroup
}

// New builds a server hosting build(name, keyRange); the network
// listener starts with Start.
func New(build Builder, name string, keyRange uint64, cfg Config) (*Server, error) {
	s := &Server{
		build:        build,
		writeTimeout: time.Minute,
		logf:         cfg.Logf,
		traceSlow:    cfg.TraceSlow,
		maxConns:     cfg.MaxConns,
		idleTimeout:  cfg.IdleTimeout,
		rateLimit:    cfg.RateLimit,
		rateBurst:    max(cfg.RateLimit, 32),
		tracer:       trace.New(),
		conns:        make(map[*srvConn]struct{}),
	}
	if err := s.host(name, keyRange); err != nil {
		return nil, err
	}
	if cfg.Follower || len(cfg.Followers) > 0 {
		s.repl = newReplState(s, cfg)
	}
	return s, nil
}

// Start begins accepting connections on addr (e.g. "127.0.0.1:0" for an
// ephemeral test port) and returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil, fmt.Errorf("server: already closed")
	}
	s.l = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr(), nil
}

// Close stops the listener and tears down every connection, returning
// once no request runs.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.l
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.teardown(causeServerClosed)
	}
	if s.repl != nil {
		s.repl.close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: the listener closes, every
// connection finishes the request it is serving, flushes its replies
// and closes (cause "drained") without reading another frame. If ctx
// expires first the remaining connections are torn down hard, exactly
// like Close, and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	l := s.l
	s.mu.Unlock()
	s.draining.Store(true)
	if l != nil {
		l.Close()
	}
	// Kick every connection out of its blocking read; re-kick each poll
	// tick because a connection that just served a frame re-arms its own
	// idle deadline. Connections observe draining between frames and
	// exit, flushing their replies.
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.nc.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		if n == 0 {
			return s.Close()
		}
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Hosted returns the current structure's registry name, key range and
// hosting generation.
func (s *Server) Hosted() (name string, keyRange, gen uint64) {
	h := s.cur.Load()
	return h.name, h.keyRange, h.gen
}

// host builds and installs a fresh hosted generation. A Builder panic
// (e.g. bench.NewDict on an unknown name) is converted into an error.
func (s *Server) host(name string, keyRange uint64) (err error) {
	s.openMu.Lock()
	defer s.openMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("open %q: %v", name, r)
		}
	}()
	d := s.build(name, keyRange)
	if d == nil {
		return fmt.Errorf("open %q: builder returned no dictionary", name)
	}
	h := d.NewHandle()
	s.cur.Store(&hosted{
		d:        d,
		name:     name,
		keyRange: keyRange,
		gen:      s.gen.Add(1),
		canRange: dict.ScanFunc(h, false) != nil,
		canSnap:  dict.ScanFunc(h, true) != nil,
	})
	return nil
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.rejectBusy(nc)
			continue
		}
		c := s.newConn(nc)
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.metrics.accepted.Inc(0)
		s.metrics.conns.Add(0, 1)
		go c.run()
	}
}

// rejectBusy answers one over-cap accept with a BUSY frame and closes
// it, off the accept loop (a blackholed peer must not stall accepts).
// BUSY is sent before anything is read, so the rejected client knows
// the server executed nothing — even its in-flight mutations are safe
// to replay on the next connection.
func (s *Server) rejectBusy(nc net.Conn) {
	s.metrics.teardowns[causeMaxConns].Inc(0)
	if s.logf != nil {
		s.logf("server: conn rejected remote=%s cause=%s", nc.RemoteAddr(), causeNames[causeMaxConns])
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer nc.Close()
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		nc.Write(wire.AppendRespBusy(nil, 0))
	}()
}

// request is the request a connection is serving: the decoded frame
// (with its reused key/value scratch) and the stamp taken when its
// frame was read (queue-wait = serve start minus enq). traceID is the
// request's trace (0 = untraced), claimed from the connection's pending
// OpTraceCtx; commitWait is stamped by the replicated write path for
// the slow-op log line.
type request struct {
	enq        time.Time
	traceID    uint64
	commitWait time.Duration
	wire.Request
}

// srvConn is one accepted connection and the state of the one goroutine
// that serves it (run): everything here but once and closed belongs to
// that goroutine.
type srvConn struct {
	s      *Server
	nc     net.Conn
	fr     *wire.FrameReader
	remote string // peer address, captured once for log lines
	once   sync.Once
	closed atomic.Bool // set by teardown: serve no further frame

	req request
	w   *worker // attached on the first request served

	// out holds the replies not yet written; wdl is the write deadline
	// last armed.
	out []byte
	wdl time.Time

	// Token bucket (Config.RateLimit): tokens refill at rateLimit/sec up
	// to rateBurst, observed at each request's arrival.
	tokens     float64
	lastRefill time.Time

	// pendingTrace is the trace id announced by the last OpTraceCtx
	// frame: the next decoded request claims it (a decode error in
	// between drops it — the ctx described a frame that never became a
	// request).
	pendingTrace uint64
}

func (s *Server) newConn(nc net.Conn) *srvConn {
	c := &srvConn{
		s:      s,
		nc:     nc,
		remote: nc.RemoteAddr().String(),
	}
	if s.rateLimit > 0 {
		c.tokens = s.rateBurst
		c.lastRefill = time.Now()
	}
	c.fr = wire.NewFrameReader(c)
	return c
}

// Read is the frame reader's source, called only when no whole frame is
// buffered: it first writes the pending replies, so none waits behind a
// blocking read. Each socket read gets a fresh idle deadline
// (Config.IdleTimeout), so a silent connection is reaped while a frame
// arriving in pieces is bounded as progress, not idleness.
func (c *srvConn) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	if c.s.idleTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.s.idleTimeout))
	}
	return c.nc.Read(p)
}

// rateLimited charges the request against the connection's token bucket
// and reports whether it must be rejected with BUSY. Only single-frame
// operations are rejectable — a BUSY mid-batch-pipeline would be
// indistinguishable from the admission BUSY that promises "nothing was
// executed on this connection", which other in-flight frames would
// falsify. Batches are charged, pushing the bucket into a bounded
// deficit; control and replication traffic is exempt.
func (c *srvConn) rateLimited(r *wire.Request) bool {
	now := time.Now()
	c.tokens += now.Sub(c.lastRefill).Seconds() * c.s.rateLimit
	if c.tokens > c.s.rateBurst {
		c.tokens = c.s.rateBurst
	}
	c.lastRefill = now
	var cost float64
	rejectable := false
	switch r.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete, wire.OpScan, wire.OpSnapScan:
		cost, rejectable = 1, true
	case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
		cost = float64(len(r.Keys))
	default: // STATS/OPEN/METRICS/REPLICATE/PROMOTE: exempt
		return false
	}
	if rejectable && c.tokens < 1 {
		return true
	}
	c.tokens -= cost
	// A batch may overdraw the bucket, but the debt is bounded at one
	// extra burst: an unbounded deficit would let a burst of large
	// batches starve the connection's subsequent single-frame ops past
	// any reasonable client retry budget (recovery is ≤ 2*burst/rate).
	if c.tokens < -c.s.rateBurst {
		c.tokens = -c.s.rateBurst
	}
	return false
}

// teardown closes the connection exactly once; a goroutine blocked on
// the socket returns with an error. The first caller's cause wins; it
// is counted per cause and, when Config.Logf is set, logged as one
// structured line — write-deadline expiries and framing violations
// included.
func (c *srvConn) teardown(cause int) {
	c.once.Do(func() {
		c.closed.Store(true)
		c.nc.Close()
		s := c.s
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.metrics.conns.Add(0, -1)
		s.metrics.teardowns[cause].Inc(0)
		if s.logf != nil {
			s.logf("server: conn closed remote=%s cause=%s", c.remote, causeNames[cause])
		}
	})
}

// flush writes the pending replies. The deadline is re-armed only once
// less than half of writeTimeout remains (see Server.writeTimeout). A
// failed write tears the connection down.
func (c *srvConn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	if now := time.Now(); c.wdl.Sub(now) < c.s.writeTimeout/2 {
		c.wdl = now.Add(c.s.writeTimeout)
		c.nc.SetWriteDeadline(c.wdl)
	}
	_, err := c.nc.Write(c.out)
	c.out = c.out[:0]
	if err != nil {
		c.teardown(writeCause(err))
	}
	return err
}

// cut writes the pending replies once they reach outCut: the bound on a
// connection's output buffer between reads, kept by every appender that
// may produce many frames.
func (c *srvConn) cut() error {
	if len(c.out) < outCut {
		return nil
	}
	return c.flush()
}

// writeCause classifies a socket-write failure: a deadline expiry (the
// stalled-peer backstop firing) is its own teardown cause so operators
// can tell slow consumers from broken pipes.
func writeCause(err error) int {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return causeWriteTimeout
	}
	return causeWriteError
}

func (c *srvConn) sendErr(id uint64, msg string) {
	c.out = wire.AppendRespError(c.out, id, msg)
}

// readFailCause classifies a failed read: EOF is the peer hanging up;
// a deadline expiry is the idle reaper (only when no partial frame is
// buffered — a peer that stalls mid-frame is a read error) or the
// drain kick (Shutdown sets an immediate deadline to unblock reads);
// anything else is a transport error.
func (c *srvConn) readFailCause(err error) int {
	if err == io.EOF {
		return causePeerClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if c.s.draining.Load() {
			return causeDrained
		}
		if c.fr.Buffered() == 0 && c.s.idleTimeout > 0 {
			return causeIdleTimeout
		}
	}
	return causeReadError
}

// run is the connection's goroutine: it decodes each frame, serves it
// on the connection's worker and appends the reply, in arrival order.
// Framing violations (short/oversized lengths, short reads) close the
// connection; malformed-but-delimited frames (unknown opcode, wrong
// payload size) produce a RespError and the stream continues — the
// length prefix keeps it aligned either way. Between frames the read
// sits under the idle deadline (Config.IdleTimeout), and a Shutdown
// stops the loop. On exit the pending replies — an error frame for a
// framing violation included — are written before the socket closes.
func (c *srvConn) run() {
	s := c.s
	defer s.wg.Done()
	defer s.parkWorker(c)
	m := &s.metrics
	req := &c.req
	cause := causeDrained
	for !s.draining.Load() && !c.closed.Load() {
		id, op, payload, err := c.fr.Next()
		if errors.Is(err, wire.ErrFrameLength) {
			c.sendErr(id, err.Error())
			cause = causeFraming
			break
		}
		if err != nil {
			cause = c.readFailCause(err)
			break
		}
		enq := time.Now()
		if err := wire.DecodeRequest(id, op, payload, &req.Request); err != nil {
			m.decodeErrs.Inc(0)
			c.pendingTrace = 0
			c.sendErr(id, err.Error())
			continue
		}
		if req.Op == wire.OpTraceCtx {
			// Remember the trace id and attribute the NEXT request to it.
			// No response frame — pipelined response matching is untouched.
			c.pendingTrace = req.Key
			continue
		}
		req.enq, req.commitWait = enq, 0
		req.traceID, c.pendingTrace = c.pendingTrace, 0
		if msg := validateKeys(&req.Request); msg != "" {
			m.keyRejects.Inc(0)
			c.sendErr(id, msg)
			continue
		}
		if s.rateLimit > 0 && c.rateLimited(&req.Request) {
			// Read but not executed: the client may safely resend it,
			// mutations included, after backing off.
			m.rateLimited.Inc(0)
			c.out = wire.AppendRespBusy(c.out, id)
			continue
		}
		if c.w == nil {
			c.w = s.takeWorker(c)
		}
		c.w.serve(req)
		if c.cut() != nil {
			return
		}
	}
	c.flush()
	c.teardown(cause)
}

// takeWorker hands c a worker of its own: a parked one when a closed
// connection left one, a new one otherwise.
func (s *Server) takeWorker(c *srvConn) *worker {
	s.mu.Lock()
	var w *worker
	if n := len(s.spare); n > 0 {
		w = s.spare[n-1]
		s.spare = s.spare[:n-1]
	} else {
		s.made++
		w = newWorker(s, s.made)
	}
	s.mu.Unlock()
	w.c = c
	return w
}

// parkWorker keeps a closing connection's worker, handle included, for
// the next connection.
func (s *Server) parkWorker(c *srvConn) {
	if c.w == nil {
		return
	}
	c.w.c = nil
	s.mu.Lock()
	s.spare = append(s.spare, c.w)
	s.mu.Unlock()
	c.w = nil
}

// validateKeys enforces the dictionaries' key domain at the protocol
// boundary: keys 0 and 2^64-1 are reserved sentinels every tree panics
// on, so an untrusted frame carrying one must turn into a clean error
// response before it ever reaches a worker's handle. Scan bounds are
// exempt — every Range/RangeSnapshot entry point clamps reserved
// bounds (the PR 4 uniform bound validation).
func validateKeys(r *wire.Request) string {
	switch r.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		if reservedKey(r.Key) {
			return "reserved key (0 and 2^64-1 are sentinels)"
		}
	case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
		for _, k := range r.Keys {
			if reservedKey(k) {
				return "reserved key in batch (0 and 2^64-1 are sentinels)"
			}
		}
	}
	return ""
}

func reservedKey(k uint64) bool { return k == 0 || k == ^uint64(0) }

// worker is one connection's per-generation attachment to the hosted
// dictionary: its own thread-bound handle, the handle's Batcher (native
// or treedict's per-key fallback) and scan entry points, plus
// batch-result and METRICS scratch.
type worker struct {
	s    *Server
	c    *srvConn // the connection the worker serves
	idx  int      // the worker's metrics shard hint
	cur  *hosted
	h    dict.Handle
	bat  dict.Batcher
	weak func(lo, hi uint64, fn func(k, v uint64) bool)
	snap func(lo, hi uint64, fn func(k, v uint64) bool)

	vals  []uint64
	oks   []bool
	key1  [1]uint64 // a replicated point request, staged as a batch of one
	val1  [1]uint64
	msnap *metrics.Snapshot // METRICS streaming scratch (≈ 9 KB), made on first use

	// Scan-in-flight state for the bound relay callback (one scan at a
	// time per worker, so worker fields — not a per-scan closure): the
	// open chunk starts at out[start].
	sc struct {
		id    uint64
		start int
		dead  bool // connection tore down mid-scan
	}
	relay func(k, v uint64) bool
}

func newWorker(s *Server, idx int) *worker {
	w := &worker{s: s, idx: idx & (metrics.NumShards - 1)}
	w.relay = w.scanRelay
	return w
}

func (w *worker) attach(h *hosted) {
	w.cur = h
	w.h = h.d.NewHandle()
	w.bat = treedict.BatcherFor(w.h)
	w.weak = dict.ScanFunc(w.h, false)
	w.snap = dict.ScanFunc(w.h, true)
}

// serve executes one request on the worker's handle and appends its
// response(s) to the connection's output. A REPLICATE applies through
// the follower's own apply handle, so it attaches nothing.
func (w *worker) serve(req *request) {
	now := time.Now()
	if h := w.s.cur.Load(); w.cur != h && req.Op != wire.OpReplicate {
		w.attach(h)
	}
	w.s.metrics.inFlight.Add(w.idx, 1)
	c := w.c
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		if w.s.repl != nil {
			w.serveRepl(req)
			break
		}
		var v uint64
		var ok bool
		switch req.Op {
		case wire.OpGet:
			v, ok = w.h.Find(req.Key)
		case wire.OpPut:
			v, ok = w.h.Insert(req.Key, req.Val)
		case wire.OpDelete:
			v, ok = w.h.Delete(req.Key)
		}
		c.out = wire.AppendRespPoint(c.out, req.ID, v, ok)
	case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
		if w.s.repl != nil {
			w.serveRepl(req)
			break
		}
		n := len(req.Keys)
		if cap(w.vals) < n {
			w.vals = make([]uint64, n)
			w.oks = make([]bool, n)
		}
		vals, oks := w.vals[:n], w.oks[:n]
		switch req.Op {
		case wire.OpMGet:
			w.bat.FindBatch(req.Keys, vals, oks)
		case wire.OpMPut:
			w.bat.InsertBatch(req.Keys, req.Vals, vals, oks)
		case wire.OpMDelete:
			w.bat.DeleteBatch(req.Keys, vals, oks)
		}
		c.out = wire.AppendRespBatch(c.out, req.ID, vals, oks)
	case wire.OpScan, wire.OpSnapScan:
		scan := w.weak
		if req.Op == wire.OpSnapScan {
			scan = w.snap
		}
		if scan == nil {
			c.sendErr(req.ID, "hosted structure does not support the requested scan kind")
			break
		}
		w.sc.id, w.sc.start, w.sc.dead = req.ID, len(c.out), false
		c.out = wire.BeginChunk(c.out, req.ID)
		scan(req.Key, req.Val, w.relay)
		if !w.sc.dead {
			c.out = wire.FinishChunk(c.out, w.sc.start, true)
		}
	case wire.OpStats:
		host := w.cur
		st := wire.Stats{
			KeySum:   host.d.KeySum(), // quiescent contract, like every KeySum here
			KeyRange: host.keyRange,
			Gen:      host.gen,
			CanRange: host.canRange,
			CanSnap:  host.canSnap,
			Name:     host.name,
		}
		st.CanTrace = true // every server at this protocol level traces
		if r := w.s.repl; r != nil {
			st.Role = byte(r.role.Load())
			st.Partition = r.partition
			st.ReplSeq = r.replSeq()
		}
		if rs, ok := host.d.(dict.RQStatser); ok {
			st.Scans, st.Versions = rs.RQStats()
		}
		if es, ok := host.d.(dict.ElimStatser); ok {
			st.ElimInserts, st.ElimDeletes, st.ElimUpserts = es.ElimStats()
		}
		c.out = wire.AppendRespStats(c.out, req.ID, st)
	case wire.OpOpen:
		if w.s.repl != nil {
			c.sendErr(req.ID, "replicated server: OPEN not supported (the op log is tied to the hosted generation)")
			break
		}
		if err := w.s.host(string(req.Name), req.Key); err != nil {
			c.sendErr(req.ID, err.Error())
		} else {
			c.out = wire.AppendRespOK(c.out, req.ID)
		}
	case wire.OpReplicate:
		r := w.s.repl
		if r == nil {
			c.sendErr(req.ID, "not a replica: server has no replication state")
			break
		}
		applied, err := r.applyReplicate(&req.Request)
		if err != nil {
			c.sendErr(req.ID, err.Error())
			break
		}
		c.out = wire.AppendRespReplAck(c.out, req.ID, applied)
	case wire.OpPromote:
		r := w.s.repl
		if r == nil {
			c.sendErr(req.ID, "not a replica: server has no replication state")
			break
		}
		var addrs []string
		if len(req.Name) > 0 {
			addrs = strings.Split(string(req.Name), ",")
		}
		if err := r.promote(int(req.Key), addrs); err != nil {
			c.sendErr(req.ID, err.Error())
			break
		}
		c.out = wire.AppendRespOK(c.out, req.ID)
	case wire.OpMetrics:
		w.serveMetrics(c, req.ID)
	case wire.OpTraceDump:
		w.serveTraceDump(c, req.ID, int(req.Key))
	default:
		// DecodeRequest rejects unknown opcodes; this is unreachable but
		// cheap insurance against a decoder/server skew.
		c.sendErr(req.ID, "unhandled opcode")
	}
	w.s.metrics.inFlight.Add(w.idx, -1)
	w.observe(req, now)
}

// scanRelay is the worker's bound scan callback: it packs pairs into
// the open chunk, closes full chunks mid-scan and opens the next one
// behind the output cut, stopping the scan if the connection died.
func (w *worker) scanRelay(k, v uint64) bool {
	c := w.c
	c.out = wire.AppendPair(c.out, k, v)
	if wire.ChunkPairs(c.out, w.sc.start) < wire.MaxChunkPairs {
		return true
	}
	c.out = wire.FinishChunk(c.out, w.sc.start, false)
	if c.cut() != nil {
		w.sc.dead = true
		return false
	}
	w.sc.start = len(c.out)
	c.out = wire.BeginChunk(c.out, w.sc.id)
	return true
}
