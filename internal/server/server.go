// Package server hosts any dict.Dict — single trees and internal/shard
// partitions alike — behind a concurrent TCP endpoint speaking the
// internal/wire protocol: GET/PUT/DELETE, batched MGET/MPUT/MDELETE
// routed straight to dict.Batcher, streamed SCAN/SNAPSHOT_SCAN, and
// STATS/OPEN control operations.
//
// Concurrency model: dict.Handle is thread-bound (one handle per
// goroutine, never shared). The server runs a fixed pool of worker
// goroutines, each owning its own handle (plus its Batcher and scan
// entry points), and a connection's reader hands batches, scans,
// control ops and a primary's point ops to the shared work queue. A
// lone request that cannot block — GET/PUT/DELETE on a standalone
// server or a follower while the queue is empty, and every REPLICATE —
// the reader serves itself, through the same worker code, on a worker
// of its own attached on first use. Responses carry the request's id,
// so they may reach the peer in any order: one connection can pipeline
// many requests and have them served by many workers concurrently. A
// point reply is written by the goroutine that made it when the
// connection's writer is idle; everything else flows through the
// writer goroutine, which gathers bursts.
//
// Allocation discipline (the PR 3 scratch-buffer rules, extended across
// the wire): request structs and response buffers are pooled per
// connection, payloads decode into per-request scratch, batch results
// land in per-worker scratch, and scan responses stream through reused
// chunk buffers — so the warmed-up point-operation path allocates
// nothing end to end (enforced by TestAllocsRemotePointOps).
//
// Flow control: each connection owns a fixed set of request slots; its
// reader blocks once all of them are in flight, bounding per-connection
// memory and work-queue pressure. A worker publishing a response
// selects on the connection's teardown signal, so a dead connection can
// never strand a worker (the robustness tests abuse this path) — and a
// live connection whose peer stopped reading is turned into a dead one
// by the write deadline (Server.writeTimeout), so a stalled peer cannot
// pin a worker either. While one does, lone requests on other
// connections are still served, on their own readers.
//
// Overload policy: a full work queue blocks the connection's reader
// behind its request slots — backpressure reaches the peer through TCP.
// Admission control is Config.MaxConns and Config.RateLimit, both
// answering BUSY ("nothing was executed"), which clients retry after
// backing off. Merging concurrent callers' point operations into batch
// descents is the client's job (client.Mux); a worker serves each
// dequeued request on its own.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
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
	// Workers is the size of the handle-owning worker pool (default
	// GOMAXPROCS). It caps the server's operation concurrency the same
	// way thread counts cap the in-process harness.
	Workers int
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
	// instead of holding reader/writer goroutines and request slots on a
	// server that is already saturated. Counted as
	// teardown_max_conns_reject_total.
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
	// mid-stream BUSY would break the client mux's "BUSY means nothing
	// executed" salvage contract), so heavy batch traffic pushes the
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

// reqSlots bounds the requests one connection may have in flight; its
// reader blocks until a slot frees up. Response buffers are sized to
// cover every slot plus in-flight scan chunks.
const reqSlots = 32

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
	build   Builder
	workers int
	// writeTimeout bounds how long a socket write may sit without
	// progress (always one minute; a field only so the in-package test
	// can shorten it). It is the stalled-peer backstop: a worker
	// publishing a response blocks on the connection's write queue, which
	// is fine while the peer consumes, but a peer that stops reading
	// mid-stream would otherwise pin that worker forever. The deadline
	// turns a stalled connection into a dead one, and teardown frees the
	// worker. It is re-armed only once less than half of it remains (a
	// SetWriteDeadline costs several time.Nows), so a stalled write fails
	// after between ½ and 1 × writeTimeout.
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
	work     chan *request
	quit     chan struct{}
	draining atomic.Bool

	openMu sync.Mutex // serializes OPEN rebuilds

	mu     sync.Mutex
	l      net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	// spare holds the workers of readers that have exited, for the next
	// reader to reuse: a handle may register with its tree for good
	// (pabtree's epoch manager), so reader handles follow the peak
	// connection count, not the connection churn. readerWorkers counts
	// the reader workers ever made.
	spare         []*worker
	readerWorkers int
	// wg counts the pool workers, the accept loop and every connection's
	// reader: Close returns only once no request runs anywhere.
	wg sync.WaitGroup
}

// New builds a server hosting build(name, keyRange) and starts its
// worker pool (the network listener starts with Start).
func New(build Builder, name string, keyRange uint64, cfg Config) (*Server, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		build:        build,
		workers:      workers,
		writeTimeout: time.Minute,
		logf:         cfg.Logf,
		traceSlow:    cfg.TraceSlow,
		maxConns:     cfg.MaxConns,
		idleTimeout:  cfg.IdleTimeout,
		rateLimit:    cfg.RateLimit,
		rateBurst:    max(cfg.RateLimit, 32),
		tracer:       trace.New(),
		work:         make(chan *request, max(4*workers, 256)),
		quit:         make(chan struct{}),
		conns:        make(map[*srvConn]struct{}),
	}
	if err := s.host(name, keyRange); err != nil {
		return nil, err
	}
	if cfg.Follower || len(cfg.Followers) > 0 {
		s.repl = newReplState(s, cfg)
	}
	s.metrics.workers.Add(0, int64(workers))
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.workerLoop(newWorker(s, i))
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

// Close stops the listener, tears down every connection and stops the
// worker pool.
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
	close(s.quit)
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
// connection's reader stops taking new requests, in-flight requests
// finish on the workers and their responses are flushed to the peers,
// and only then do the connections close (cause "drained") and the
// worker pool stop. If ctx expires first the remaining connections are
// torn down hard, exactly like Close, and ctx.Err() is returned.
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
	// Kick every reader out of its blocking read; re-kick each poll tick
	// because a reader that just served a frame re-arms its own idle
	// deadline. Readers observe draining and exit via the writer's drain
	// path, which waits out the connection's in-flight requests.
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
		go c.reader()
		go c.writer()
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

// request is one in-flight request: the decoded frame (with its reused
// key/value scratch), the connection to respond on, and the reader's
// enqueue stamp (queue-wait = worker dequeue time minus enq). traceID
// is the request's trace (0 = untraced), claimed from the connection's
// pending OpTraceCtx by the reader; commitWait is stamped by the
// replicated write path for the slow-op log line.
type request struct {
	c          *srvConn
	enq        time.Time
	traceID    uint64
	commitWait time.Duration
	wire.Request
}

// outBuf is one pooled response buffer.
type outBuf struct{ b []byte }

// srvConn is one accepted connection: a reader goroutine decoding
// frames into pooled request structs (and serving the lone ones itself,
// on w), and a writer goroutine flushing pooled response buffers. Two
// goroutines write the socket — the writer, and whoever made a point
// reply while the writer was idle — each a whole frame under wmu. done
// closes exactly once, on teardown; every blocking hand-off (worker
// publishing a response, reader waiting for a free request slot)
// selects on it.
type srvConn struct {
	s         *Server
	nc        net.Conn
	fr        *wire.FrameReader
	remote    string // peer address, captured once for log lines
	done      chan struct{}
	drain     chan struct{}
	once      sync.Once
	drainOnce sync.Once

	// readCause is the teardown cause the reader observed before asking
	// for shutdown; the writer's drain path passes it to teardown.
	// Written only by the reader before close(drain), read after the
	// drain channel fires, so the close is the happens-before edge.
	readCause int

	writeq  chan *outBuf
	reqPool chan *request
	outPool chan *outBuf

	// wmu is held for every socket write; wdl is the write deadline last
	// armed, guarded by wmu.
	wmu sync.Mutex
	wdl time.Time

	// w is the reader's own worker, attached on the first request the
	// reader serves; reader-owned.
	w *worker

	// inflight counts requests taken from reqPool and not yet returned —
	// what the writer's drain path waits out so a graceful Shutdown never
	// drops a response a worker is still producing.
	inflight atomic.Int64

	// Token bucket (Config.RateLimit), reader-owned: tokens refill at
	// rateLimit/sec up to rateBurst, observed at each request's arrival.
	tokens     float64
	lastRefill time.Time

	// pendingTrace is the trace id announced by the last OpTraceCtx
	// frame, reader-owned: the next decoded request claims it (a decode
	// error in between drops it — the ctx described a frame that never
	// became a request).
	pendingTrace uint64
}

func (s *Server) newConn(nc net.Conn) *srvConn {
	c := &srvConn{
		s:       s,
		nc:      nc,
		remote:  nc.RemoteAddr().String(),
		done:    make(chan struct{}),
		drain:   make(chan struct{}),
		writeq:  make(chan *outBuf, 2*reqSlots),
		reqPool: make(chan *request, reqSlots),
		outPool: make(chan *outBuf, 2*reqSlots),
	}
	if s.rateLimit > 0 {
		c.tokens = s.rateBurst
		c.lastRefill = time.Now()
	}
	c.fr = wire.NewFrameReader(c)
	for i := 0; i < reqSlots; i++ {
		c.reqPool <- &request{c: c}
	}
	return c
}

// Read is the frame reader's source. Each socket read gets a fresh idle
// deadline (Config.IdleTimeout), so a silent connection is reaped while
// a frame arriving in pieces is bounded as progress, not idleness.
func (c *srvConn) Read(p []byte) (int, error) {
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

// sendBusy answers one rate-limited request with a BUSY frame echoing
// its id: the request was read but not executed, so the client may
// safely resend it (mutations included) after backing off.
func (c *srvConn) sendBusy(id uint64) {
	ob := c.getOut()
	ob.b = wire.AppendRespBusy(ob.b[:0], id)
	c.send(ob)
}

// shutdown asks the writer to drain the queued responses, flush and
// tear the connection down — the reader's exit path, so responses
// already produced (including its own error frames) reach the peer
// before the socket closes.
func (c *srvConn) shutdown() {
	c.drainOnce.Do(func() { close(c.drain) })
}

// teardown closes the connection exactly once: readers and writers
// unblock via nc.Close and done; workers holding responses for this
// connection drop them via done. The first caller's cause wins; it is
// counted per cause and, when Config.Logf is set, logged as one
// structured line — write-deadline expiries and framing violations
// included, which used to vanish silently.
func (c *srvConn) teardown(cause int) {
	c.once.Do(func() {
		close(c.done)
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

// getOut fetches a pooled response buffer (allocating only while the
// pool is still warming up).
func (c *srvConn) getOut() *outBuf {
	select {
	case ob := <-c.outPool:
		return ob
	default:
		return &outBuf{}
	}
}

func (c *srvConn) putOut(ob *outBuf) {
	if cap(ob.b) > wire.MaxFrame {
		return // oversized one-off (large batch response): let it go
	}
	select {
	case c.outPool <- ob:
	default:
	}
}

func (c *srvConn) putReq(req *request) {
	c.inflight.Add(-1)
	select {
	case c.reqPool <- req:
	default:
	}
}

// send queues a sealed response buffer for the writer, abandoning it if
// the connection tears down first — the worker never blocks on a dead
// connection. It reports whether the buffer was accepted. Batch
// replies, scan chunks and control replies always take this path, so a
// burst of them is gathered into few writes.
func (c *srvConn) send(ob *outBuf) bool {
	select {
	case c.writeq <- ob:
		return true
	case <-c.done:
		c.s.metrics.shedConnDead.Inc(0)
		return false
	}
}

// reply publishes a one-frame reply (a point reply or a REPL_ACK). When
// the writer is idle — nothing queued and wmu free — the calling
// goroutine writes it to the socket itself, saving the hand-off to the
// writer goroutine; otherwise it queues it like any response.
func (c *srvConn) reply(ob *outBuf) {
	if len(c.writeq) > 0 || !c.wmu.TryLock() {
		c.send(ob)
		return
	}
	err := c.write(ob.b)
	c.wmu.Unlock()
	c.putOut(ob)
	if err != nil {
		c.teardown(writeCause(err))
	}
}

// write sends b; the caller holds wmu. The deadline is re-armed only
// once less than half of writeTimeout remains (see Server.writeTimeout).
func (c *srvConn) write(b []byte) error {
	if now := time.Now(); c.wdl.Sub(now) < c.s.writeTimeout/2 {
		c.wdl = now.Add(c.s.writeTimeout)
		c.nc.SetWriteDeadline(c.wdl)
	}
	_, err := c.nc.Write(b)
	return err
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

func (c *srvConn) sendPoint(id uint64, val uint64, ok bool) {
	ob := c.getOut()
	ob.b = wire.AppendRespPoint(ob.b[:0], id, val, ok)
	c.reply(ob)
}

func (c *srvConn) sendPointSeq(id uint64, val uint64, ok bool, seq uint64) {
	ob := c.getOut()
	ob.b = wire.AppendRespPointSeq(ob.b[:0], id, val, ok, seq)
	c.reply(ob)
}

func (c *srvConn) sendErr(id uint64, msg string) {
	ob := c.getOut()
	ob.b = wire.AppendRespError(ob.b[:0], id, msg)
	c.send(ob)
}

// readFailCause classifies a failed read: EOF is the peer hanging up;
// a deadline expiry is the idle reaper (only when no partial frame is
// buffered — a peer that stalls mid-frame is a read error) or the
// drain kick (Shutdown sets an immediate deadline to unblock readers);
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

// reader decodes frames, serves the lone requests that cannot block
// itself (see onReader) and hands the rest to the server's work queue.
// Framing violations (short/oversized lengths, short reads) close the
// connection; malformed-but-delimited frames (unknown opcode, wrong
// payload size) produce a RespError and the stream continues — the
// length prefix keeps it aligned either way. Between frames the read
// sits under the idle deadline (Config.IdleTimeout) and exits cleanly
// when Shutdown kicks it.
func (c *srvConn) reader() {
	defer c.s.wg.Done()
	defer c.s.parkWorker(c)
	defer c.shutdown()
	m := &c.s.metrics
	for {
		if c.s.draining.Load() {
			c.readCause = causeDrained
			return
		}
		id, op, payload, err := c.fr.Next()
		if errors.Is(err, wire.ErrFrameLength) {
			c.sendErr(id, err.Error())
			c.readCause = causeFraming
			return
		}
		if err != nil {
			c.readCause = c.readFailCause(err)
			return
		}
		var req *request
		select {
		case req = <-c.reqPool:
		case <-c.done:
			return
		}
		c.inflight.Add(1)
		if err := wire.DecodeRequest(id, op, payload, &req.Request); err != nil {
			m.decodeErrs.Inc(0)
			c.pendingTrace = 0
			c.sendErr(id, err.Error())
			c.putReq(req)
			continue
		}
		if req.Op == wire.OpTraceCtx {
			// Consumed by the reader: remember the trace id and attribute
			// the NEXT request to it. No response frame — pipelined
			// response matching is untouched.
			c.pendingTrace = req.Request.Key
			c.putReq(req)
			continue
		}
		req.traceID, c.pendingTrace = c.pendingTrace, 0
		req.commitWait = 0
		if msg := validateKeys(&req.Request); msg != "" {
			m.keyRejects.Inc(0)
			c.sendErr(id, msg)
			c.putReq(req)
			continue
		}
		if c.s.rateLimit > 0 && c.rateLimited(&req.Request) {
			m.rateLimited.Inc(0)
			c.sendBusy(id)
			c.putReq(req)
			continue
		}
		req.enq = time.Now()
		if c.onReader(req) {
			select {
			case <-c.done:
				return // torn down: Close may be waiting on this reader
			default:
			}
			if c.w == nil {
				c.w = c.s.readerWorker()
			}
			m.readerServed.Inc(c.w.idx)
			c.w.serve(req, req.enq)
			continue
		}
		select {
		case c.s.work <- req:
		case <-c.done:
			return
		case <-c.s.quit:
			c.readCause = causeServerClosed
			return
		}
	}
}

// onReader reports whether the reader serves req itself rather than
// queueing it for the pool: a request that cannot block, at a moment
// the pool has no backlog to overtake. That is GET/PUT/DELETE on a
// standalone server or a follower (a primary's point ops block in
// commitWait), and every REPLICATE — a sink connection is stop-and-wait
// and applyMu serialises its applies anyway, so the pool adds nothing
// but a hand-off, and a follower whose workers are all busy still
// acknowledges its primary.
func (c *srvConn) onReader(req *request) bool {
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		r := c.s.repl
		return len(c.s.work) == 0 && (r == nil || r.role.Load() == wire.RoleFollower)
	case wire.OpReplicate:
		return true
	}
	return false
}

// readerWorker hands a reader a worker of its own: a parked one when a
// reader that exited left one, a new one otherwise. New ones share the
// pool's metrics stripes, round robin, so readers add no histogram
// stripes of their own.
func (s *Server) readerWorker() *worker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.spare); n > 0 {
		w := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return w
	}
	s.readerWorkers++
	return newWorker(s, s.readerWorkers%s.workers)
}

// parkWorker keeps an exiting reader's worker, handle included, for the
// next reader.
func (s *Server) parkWorker(c *srvConn) {
	if c.w == nil {
		return
	}
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

// writer sends the queued response buffers. A lone response goes out
// as is; a burst (more queued behind it) is gathered into one write,
// cut at 64 KB so a streamed scan cannot grow the scratch without
// bound. Each write holds wmu, so a point reply written directly by its
// producer (reply) never lands inside one of these. Steady progress
// never trips the write deadline, a peer that stopped reading does, and
// the resulting write error tears the connection down (see
// Server.writeTimeout). On shutdown (the reader's exit) it drains what
// is already queued and performs the final teardown, so a
// framing-violation error frame — or the tail of a pipelined burst —
// reaches the peer before the socket closes.
func (c *srvConn) writer() {
	var gather []byte
	// write leaves nothing gathered once the queue is empty: only the
	// writer dequeues, so a response gathered behind a non-empty queue is
	// always followed by another write call.
	write := func(ob *outBuf) bool {
		b := ob.b
		if len(gather) > 0 || len(c.writeq) > 0 {
			gather = append(gather, b...)
			if len(c.writeq) > 0 && len(gather) < 64<<10 {
				c.putOut(ob)
				return true
			}
			b, gather = gather, gather[:0]
		}
		c.wmu.Lock()
		err := c.write(b)
		c.wmu.Unlock()
		c.putOut(ob)
		if err != nil {
			c.teardown(writeCause(err))
			return false
		}
		return true
	}
	for {
		select {
		case ob := <-c.writeq:
			if !write(ob) {
				return
			}
		case <-c.drain:
			for {
				select {
				case ob := <-c.writeq:
					if !write(ob) {
						return
					}
				default:
					// Workers may still be producing responses for this
					// connection (inflight counts reader-claimed requests
					// until putReq). Each response is enqueued before its
					// request is returned, so once inflight reaches zero
					// with the queue empty, everything is flushed.
					if c.inflight.Load() > 0 {
						select {
						case ob := <-c.writeq:
							if !write(ob) {
								return
							}
						case <-c.done:
							return
						case <-time.After(100 * time.Microsecond):
						}
						continue
					}
					// inflight hit zero after the empty check above; a
					// response enqueued in between is in writeq now (the
					// enqueue happens before the decrement). Sweep once
					// more, then the queue is final: the reader has exited,
					// so no request can be claimed anymore.
					select {
					case ob := <-c.writeq:
						if !write(ob) {
							return
						}
						continue
					default:
					}
					c.teardown(c.readCause)
					return
				}
			}
		case <-c.done:
			return
		}
	}
}

// worker is one pool goroutine's, or one reader's, per-generation
// attachment to the hosted dictionary: its own thread-bound handle, the
// handle's Batcher (native or treedict's per-key fallback) and scan
// entry points, plus batch-result and scan-chunk scratch.
type worker struct {
	s    *Server
	idx  int // the worker's metrics shard hint
	cur  *hosted
	h    dict.Handle
	bat  dict.Batcher
	weak func(lo, hi uint64, fn func(k, v uint64) bool)
	snap func(lo, hi uint64, fn func(k, v uint64) bool)

	vals  []uint64
	oks   []bool
	msnap *metrics.Snapshot // METRICS streaming scratch (≈ 9 KB), made on first use

	// Scan-in-flight state for the bound relay callback (one scan at a
	// time per worker, so worker fields — not a per-scan closure).
	sc struct {
		c    *srvConn
		id   uint64
		ob   *outBuf
		dead bool // connection tore down mid-scan
	}
	relay func(k, v uint64) bool
}

func newWorker(s *Server, idx int) *worker {
	w := &worker{s: s, idx: idx & (metrics.NumShards - 1)}
	w.relay = w.scanRelay
	return w
}

func (s *Server) workerLoop(w *worker) {
	defer s.wg.Done()
	for {
		select {
		case req := <-s.work:
			w.serve(req, time.Now())
		case <-s.quit:
			return
		}
	}
}

func (w *worker) attach(h *hosted) {
	w.cur = h
	w.h = h.d.NewHandle()
	w.bat = treedict.BatcherFor(w.h)
	w.weak = dict.ScanFunc(w.h, false)
	w.snap = dict.ScanFunc(w.h, true)
}

// serve executes one request on the worker's handle and publishes its
// response(s) to the owning connection; now is the service start. A
// REPLICATE applies through the follower's own apply handle, so it
// attaches nothing.
func (w *worker) serve(req *request, now time.Time) {
	if h := w.s.cur.Load(); w.cur != h && req.Op != wire.OpReplicate {
		w.attach(h)
	}
	w.s.metrics.inFlight.Add(w.idx, 1)
	c := req.c
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		if w.s.repl != nil {
			w.serveReplPoint(req)
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
		c.sendPoint(req.ID, v, ok)
	case wire.OpMGet, wire.OpMPut, wire.OpMDelete:
		if w.s.repl != nil {
			w.serveReplBatch(req)
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
		ob := c.getOut()
		ob.b = wire.AppendRespBatch(ob.b[:0], req.ID, vals, oks)
		c.send(ob)
	case wire.OpScan, wire.OpSnapScan:
		scan := w.weak
		if req.Op == wire.OpSnapScan {
			scan = w.snap
		}
		if scan == nil {
			c.sendErr(req.ID, "hosted structure does not support the requested scan kind")
			break
		}
		w.sc.c, w.sc.id, w.sc.dead = c, req.ID, false
		w.sc.ob = c.getOut()
		w.sc.ob.b = wire.BeginChunk(w.sc.ob.b[:0], req.ID)
		scan(req.Key, req.Val, w.relay)
		if !w.sc.dead {
			w.sc.ob.b = wire.FinishChunk(w.sc.ob.b, 0, true)
			c.send(w.sc.ob)
		}
		w.sc.c, w.sc.ob = nil, nil
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
		ob := c.getOut()
		ob.b = wire.AppendRespStats(ob.b[:0], req.ID, st)
		c.send(ob)
	case wire.OpOpen:
		if w.s.repl != nil {
			c.sendErr(req.ID, "replicated server: OPEN not supported (the op log is tied to the hosted generation)")
			break
		}
		if err := w.s.host(string(req.Name), req.Key); err != nil {
			c.sendErr(req.ID, err.Error())
		} else {
			ob := c.getOut()
			ob.b = wire.AppendRespOK(ob.b[:0], req.ID)
			c.send(ob)
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
		ob := c.getOut()
		ob.b = wire.AppendRespReplAck(ob.b[:0], req.ID, applied)
		c.reply(ob)
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
		ob := c.getOut()
		ob.b = wire.AppendRespOK(ob.b[:0], req.ID)
		c.send(ob)
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
	c.putReq(req)
}

// scanRelay is the worker's bound scan callback: it packs pairs into
// the open chunk and ships full chunks mid-scan, stopping the scan if
// the connection died.
func (w *worker) scanRelay(k, v uint64) bool {
	w.sc.ob.b = wire.AppendPair(w.sc.ob.b, k, v)
	if wire.ChunkPairs(w.sc.ob.b, 0) >= wire.MaxChunkPairs {
		w.sc.ob.b = wire.FinishChunk(w.sc.ob.b, 0, false)
		if !w.sc.c.send(w.sc.ob) {
			w.sc.ob = nil
			w.sc.dead = true
			return false
		}
		w.sc.ob = w.sc.c.getOut()
		w.sc.ob.b = wire.BeginChunk(w.sc.ob.b[:0], w.sc.id)
	}
	return true
}
