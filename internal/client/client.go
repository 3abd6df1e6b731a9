// Package client is the Go client for internal/server: a pipelined
// implementation of dict.Dict + dict.Batcher over the internal/wire
// protocol, so the entire in-process workload harness (bench, ycsb, the
// linearizability recorder) runs unmodified against a remote server.
//
// Shape: each handle owns one TCP connection to the server. Handles are
// thread-bound by the dict contract, so a connection per handle gives
// each worker goroutine a private, lock-free wire path (the server
// serves each connection on a goroutine and handle of its own); the
// Client holds the dial/retry policy and the control handle. Batched
// operations larger than wire.MaxBatch are pipelined: their chunk frames
// go out on a goroutine of their own while the caller reads the
// replies, and the echoed request ids reassemble the results in input
// order.
//
// A Mux (mux.go) is one combiner goroutine over one such handle: it
// merges concurrent callers' point operations into batch frames, one
// pass in flight at a time, under the same retry loop. A server answers
// a connection's frames in the order it read them (see internal/wire),
// so every reply is read against the oldest unanswered frame
// (handle.reply); a reply to any other frame is a protocol error, and
// the connection is redialed. Neither a handle nor a Mux has a terminal
// state: a request that exhausts its retries fails, and the next one
// redials afresh.
//
// Scan responses are buffered per handle before the callback runs (the
// stream is fully drained first), so dict.Ranger's "fn may run point
// operations on the same handle" contract holds over the wire too.
//
// Allocation discipline: request frames, response payloads and scan
// pair buffers are per-handle scratch, reused across calls — a warmed-up
// remote point operation allocates nothing on either endpoint (see
// internal/server's TestAllocsRemotePointOps).
//
// Error model: Dial, Open, Stats and Close return errors; the
// dict.Dict/Handle methods cannot (the interfaces have no error
// results). Every request runs as one attempt under the one retry loop
// in retry.go — handles redial with capped exponential backoff and
// replay idempotent operations transparently; mutations that may have
// reached the server fail with ErrAmbiguous instead of replaying. Only
// when retries are exhausted (or a mutation turns ambiguous) does a
// dict.Handle method panic with a descriptive message; the Try* methods
// (TryHandle) surface the same errors for chaos drills.
package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// Client connects to one abtree server; each handle it makes owns one
// connection. It implements dict.Dict (plus dict.RQStatser and
// dict.ElimStatser, served by the remote STATS operation), so
// bench.NewDict can hand it to every workload unchanged.
type Client struct {
	addr string
	cfg  Config // dial/retry policy (see retry.go), defaults applied

	// ctrlMu serializes control RPCs (STATS/OPEN/PROMOTE/METRICS/
	// TRACE_DUMP) on the shared ctrl handle. It is a separate lock from
	// mu and is never held while taking it in the other order: the retry
	// machinery under a control RPC re-enters mu (redial registers/
	// unregisters connections), so holding mu across the RPC would
	// self-deadlock the moment a ctrl connection broke mid-call.
	ctrlMu sync.Mutex

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // live dialed connections, for Close
	ctrl   *handle               // lazily dialed control handle (STATS/OPEN/KeySum)
	caps   wire.Stats            // hosted structure info from the last STATS/OPEN
	open   bool
	nhands int // handles dialed, for RTT shard hints

	rtt    rttHists      // client-side per-op round-trip histograms
	faults faultCounters // redials/retries/ambiguous/busy (see retry.go)

	// Tracing (Config.TraceEvery > 0): the local span collector, the
	// trace-id mint, and whether the server advertised CapTrace (refreshed
	// with the capabilities on every STATS/OPEN; trace frames are never
	// sent to a server that didn't).
	tracer   *trace.Collector
	traceSeq atomic.Uint64
	canTrace atomic.Bool
}

// Dial connects to an abtree server with the default Config and fetches
// the hosted structure's capabilities (which scan kinds its handles will
// offer).
func Dial(addr string) (*Client, error) { return DialConfig(addr, Config{}) }

// DialConfig is Dial with an explicit dial/retry policy.
func DialConfig(addr string, cfg Config) (*Client, error) {
	c := &Client{
		addr:  addr,
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
		open:  true,
	}
	if c.cfg.TraceEvery > 0 {
		c.tracer = trace.New()
		// Seed the trace-id mint with the dial stamp so ids from distinct
		// clients (and client restarts) don't collide in a shared server
		// collector.
		c.traceSeq.Store(uint64(time.Now().UnixNano()) << 8)
	}
	if _, err := c.Stats(); err != nil {
		c.Close()
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return c, nil
}

// Name returns the hosted structure's registry name (as of the last
// STATS or OPEN).
func (c *Client) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.caps.Name
}

// Stats fetches the server's STATS snapshot (key sum, rq/elimination
// counters, hosted name/keyRange/generation, scan capabilities) and
// refreshes the cached capabilities.
func (c *Client) Stats() (wire.Stats, error) {
	var st wire.Stats
	err := c.control(wire.OpStats, func(out []byte, id uint64) []byte { return wire.AppendStats(out, id) },
		wire.RespStats, func(payload []byte) (last bool, err error) {
			st, err = wire.DecodeStats(payload)
			return true, err
		})
	if err != nil {
		return wire.Stats{}, err
	}
	c.mu.Lock()
	c.caps = st
	c.mu.Unlock()
	c.canTrace.Store(st.CanTrace)
	return st, nil
}

// Open asks the server to host a fresh instance of the named registry
// structure sized for keyRange (the remote analogue of bench.NewDict),
// then refreshes the cached capabilities. Handles created before Open
// keep operating on the old generation's semantics until their next
// operation, which lands on the new structure. OPEN retries like an
// idempotent op: re-opening the same <name, keyRange> after a torn
// connection converges on the same state (a fresh hosted instance).
func (c *Client) Open(name string, keyRange uint64) error {
	err := c.control(wire.OpOpen, func(out []byte, id uint64) []byte { return wire.AppendOpen(out, id, keyRange, name) },
		wire.RespOK, nil)
	if err == nil {
		_, err = c.Stats()
	}
	return err
}

// Promote asks the server to become (or confirm itself as) the primary
// of its partition, shipping its log to addrs under the given ack
// policy. Promotion is idempotent on the server (a CAS; re-promoting a
// primary is a no-op), so it retries like an idempotent op. The cluster
// router calls this during failover.
func (c *Client) Promote(ack int, addrs []string) error {
	joined := strings.Join(addrs, ",")
	return c.control(wire.OpPromote, func(out []byte, id uint64) []byte { return wire.AppendPromote(out, id, ack, joined) },
		wire.RespOK, nil)
}

// control runs one control RPC (see handle.rpc) on the shared control
// handle, dialing it on first use.
func (c *Client) control(op byte, req func(out []byte, id uint64) []byte,
	want byte, each func(payload []byte) (last bool, err error)) error {
	c.ctrlMu.Lock()
	defer c.ctrlMu.Unlock()
	c.mu.Lock()
	h := c.ctrl
	c.mu.Unlock()
	if h == nil {
		var err error
		if h, err = c.newHandle(); err != nil {
			return err
		}
		c.mu.Lock()
		c.ctrl = h
		c.mu.Unlock()
	}
	return h.rpc(op, req, want, each)
}

// Close closes every connection the client dialed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.open = false
	var first error
	for nc := range c.conns {
		if err := nc.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.conns = nil
	c.ctrl = nil
	return first
}

// NewHandle dials a dedicated connection and returns a per-goroutine
// accessor whose dynamic type exposes exactly the scan capabilities the
// hosted structure reported (mirroring internal/shard's composed
// handles). It panics if the dial fails — dict.Dict.NewHandle has no
// error result.
func (c *Client) NewHandle() dict.Handle {
	h, err := c.NewTryHandle()
	if err != nil {
		panic(fmt.Sprintf("client: NewHandle: %v", err))
	}
	return h
}

// NewTryHandle is NewHandle with an error result instead of a panic —
// for callers (the cluster router) that must tolerate dialing a dead
// replica and fail over instead of crashing.
func (c *Client) NewTryHandle() (dict.Handle, error) {
	h, err := c.newHandle()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	caps := c.caps
	c.mu.Unlock()
	if !caps.CanRange {
		return h, nil
	}
	rh := &rangeHandle{h}
	if !caps.CanSnap {
		return rh, nil
	}
	return &snapHandle{rangeHandle{h}}, nil
}

// KeySum returns the hosted structure's wrapping key sum via STATS
// (quiescent only, like every KeySum in this repository). It panics on
// a wire failure — dict.Dict.KeySum has no error result.
func (c *Client) KeySum() uint64 {
	st, err := c.Stats()
	if err != nil {
		panic(fmt.Sprintf("client: KeySum: %v", err))
	}
	return st.KeySum
}

// RQStats reports the hosted structure's range-query counters
// (dict.RQStatser over the wire; zeros if the structure has none).
func (c *Client) RQStats() (scans, versions uint64) {
	st, err := c.Stats()
	if err != nil {
		panic(fmt.Sprintf("client: RQStats: %v", err))
	}
	return st.Scans, st.Versions
}

// ElimStats reports the hosted structure's publishing-elimination
// counters (dict.ElimStatser over the wire; zeros if none).
func (c *Client) ElimStats() (inserts, deletes, upserts uint64) {
	st, err := c.Stats()
	if err != nil {
		panic(fmt.Sprintf("client: ElimStats: %v", err))
	}
	return st.ElimInserts, st.ElimDeletes, st.ElimUpserts
}

// newHandle returns a handle with its connection dialed (once: a dial
// error is returned, not retried).
func (c *Client) newHandle() (*handle, error) {
	h := c.undialed()
	if err := h.redial(); err != nil {
		return nil, err
	}
	return h, nil
}

// undialed returns a handle whose connection is not dialed yet: its
// first operation dials it through the retry policy, as a redial does.
func (c *Client) undialed() *handle {
	c.mu.Lock()
	c.nhands++
	n := c.nhands
	c.mu.Unlock()
	return &handle{meter: meter{c: c, hint: n}, rng: newRetryRNG(n), broken: true}
}

// handle is a per-goroutine wire accessor over its own connection. Not
// safe for concurrent use, like every dict.Handle.
type handle struct {
	meter  // owning pool (redial policy, fault counters) + per-op instruments
	nc     net.Conn
	fr     *wire.FrameReader // response frames; payloads valid until the next read
	id     uint64
	broken bool        // connection dead or not yet dialed; next attempt redials
	rng    *xrand.Rand // backoff jitter stream

	out   []byte // request frame scratch
	pairs []byte // scan pair buffer (packed 16-byte pairs)

	trace uint64 // trace id of the in-flight sampled batch/scan (0: none)

	// lastSeq is the highest replication sequence number any response on
	// this handle has carried (0 against standalone servers). The cluster
	// router reads it through ReplSeq to maintain its read-your-writes
	// fence across replicas.
	lastSeq uint64
}

// Seqer is implemented by handles that track replication sequence
// numbers from seq-carrying responses (see ReplSeq).
type Seqer interface {
	ReplSeq() uint64
}

// ReplSeq returns the highest replication sequence number observed on
// this handle: after a successful mutation against a replicated
// primary, the op-log position the mutation committed at; after a read,
// the serving replica's apply/commit position. Zero against standalone
// servers.
func (h *handle) ReplSeq() uint64 { return h.lastSeq }

func (h *handle) noteSeq(seq uint64) {
	if seq > h.lastSeq {
		h.lastSeq = seq
	}
}

func (h *handle) nextID() uint64 {
	h.id++
	return h.id
}

// respError is an application-level failure reported by the server over
// a healthy connection (RespError). It is never retried: the request was
// received, executed and rejected exactly once.
type respError string

func (e respError) Error() string { return "server error: " + string(e) }

// Is lets errors.Is(err, ErrReadOnly) recognize a follower's mutation
// rejection by its wire message (the server has no richer error channel
// than the RespError string).
func (e respError) Is(target error) bool {
	return target == ErrReadOnly && strings.HasPrefix(string(e), "follower:")
}

// errProtocol marks a reply the wire contract rules out — a bug on one
// side of the connection, not a transport failure; the connection is
// redialed like a broken one.
var errProtocol = errors.New("protocol violation")

// reply reads the next reply frame and returns its payload when it
// answers request id with opcode want. Otherwise it returns the read
// error, errRateLimited for a BUSY echoing id (the connection stays
// healthy), errBusy for an admission BUSY (id 0: the connection is
// dead), a respError, or errProtocol for any other id or opcode.
func (h *handle) reply(id uint64, want byte) ([]byte, error) {
	rid, rop, payload, err := h.fr.Next()
	switch {
	case err != nil:
		return nil, err
	case rop == wire.RespBusy:
		if rid == id {
			return nil, errRateLimited
		}
		return nil, errBusy
	case rop == wire.RespError:
		return nil, respError(payload)
	case rid != id || rop != want:
		return nil, fmt.Errorf("%w: got id=%d op=%#x, want id=%d op=%#x", errProtocol, rid, rop, id, want)
	}
	return payload, nil
}

// rpc runs one single-frame request under retry. Each attempt builds the
// request anew — req appends the frame for id to out, announced under
// h.trace when a trace is in flight — writes it, and hands every reply
// to each until each reports the last one. A nil each takes one reply
// and ignores its payload.
func (h *handle) rpc(op byte, req func(out []byte, id uint64) []byte,
	want byte, each func(payload []byte) (last bool, err error)) error {
	return h.retry(op, func() (bool, error) {
		id := h.nextID()
		h.out = h.out[:0]
		if h.trace != 0 {
			h.out = wire.AppendTraceCtx(h.out, id, h.trace)
		}
		h.out = req(h.out, id)
		if n, err := h.nc.Write(h.out); err != nil {
			return n > 0, err
		}
		for {
			payload, err := h.reply(id, want)
			if err != nil || each == nil {
				return true, err
			}
			if last, err := each(payload); last || err != nil {
				return true, err
			}
		}
	})
}

// metered runs one data request with its round trip metered and, when
// head-sampled, its trace id in h.trace for the request frames.
func (h *handle) metered(op byte, run func() error) error {
	t0, tid := h.start()
	h.trace = tid
	err := run()
	h.trace = 0
	if err == nil {
		h.done(op, t0, tid)
	}
	return err
}

// tryPoint is one metered point op: the Try* methods return its error,
// the dict.Handle methods panic on it.
func (h *handle) tryPoint(op byte, key, val uint64) (v uint64, ok bool, err error) {
	err = h.metered(op, func() error {
		return h.rpc(op, func(out []byte, id uint64) []byte { return wire.AppendPoint(out, id, op, key, val) },
			wire.RespPoint, func(payload []byte) (bool, error) {
				var seq uint64
				var derr error
				v, ok, seq, derr = wire.DecodePoint(payload)
				h.noteSeq(seq)
				return true, derr
			})
	})
	return v, ok, err
}

func (h *handle) point(op byte, key, val uint64) (uint64, bool) {
	v, ok, err := h.tryPoint(op, key, val)
	if err != nil {
		panic(fmt.Sprintf("client: point op %#x: %v", op, err))
	}
	return v, ok
}

// Find looks up key on the remote structure.
func (h *handle) Find(key uint64) (uint64, bool) { return h.point(wire.OpGet, key, 0) }

// Insert inserts <key, val> if absent (dict.Handle.Insert semantics).
func (h *handle) Insert(key, val uint64) (uint64, bool) { return h.point(wire.OpPut, key, val) }

// Delete removes key if present.
func (h *handle) Delete(key uint64) (uint64, bool) { return h.point(wire.OpDelete, key, 0) }

func (h *handle) runBatch(op byte, keys, ivals []uint64, ovals []uint64, oks []bool) {
	if len(ovals) != len(keys) || len(oks) != len(keys) || (op == wire.OpMPut && len(ivals) != len(keys)) {
		panic("client: batch result slices must match len(keys)")
	}
	if len(keys) == 0 {
		return
	}
	// Each attempt rebuilds every frame and re-decodes every reply, so a
	// partial earlier attempt leaves no residue in ovals/oks.
	err := h.metered(op, func() error { // whole-call RTT, all pipelined frames
		if len(keys) > wire.MaxBatch {
			return h.retry(op, func() (bool, error) { return h.pipeline(op, keys, ivals, ovals, oks) })
		}
		return h.rpc(op, func(out []byte, id uint64) []byte { return wire.AppendBatch(out, id, op, keys, ivals) },
			wire.RespBatch, func(payload []byte) (bool, error) { return true, h.decodeBatch(payload, ovals, oks) })
	})
	if err != nil {
		panic(fmt.Sprintf("client: batch op %#x: %v", op, err))
	}
}

// decodeBatch decodes one batch reply into its chunk's results.
func (h *handle) decodeBatch(payload []byte, ovals []uint64, oks []bool) error {
	seq, err := wire.DecodeBatch(payload, ovals, oks)
	h.noteSeq(seq)
	return err
}

// batchReply reads the reply to batch frame id into its results. A
// rate-limit BUSY is a protocol error here: batch frames are never
// rate-limited, and a connection with replies still due cannot be
// resent on.
func (h *handle) batchReply(id uint64, ovals []uint64, oks []bool) error {
	payload, err := h.reply(id, wire.RespBatch)
	if errors.Is(err, errRateLimited) {
		return fmt.Errorf("%w: BUSY for a batch frame", errProtocol)
	}
	if err != nil {
		return err
	}
	return h.decodeBatch(payload, ovals, oks)
}

// pipeline runs one attempt of a batch larger than wire.MaxBatch: its
// chunk frames, one id each, are written on a goroutine of their own,
// gathered into writes of up to 64 KB, while the caller reads the
// replies. The server reads a connection's socket only after writing
// its pending replies, so a client that wrote several frames before
// reading would block both ends in write once the socket buffers could
// not hold them; reading while writing keeps the pipeline safe whatever
// the buffer sizes. The server serves a connection's frames in arrival
// order, so the replies come in id order and equal keys in different
// frames apply in input order (the dict.Batcher contract), as they do
// within one frame. An error reply for one frame does not stop the
// others, which are read to keep the connection in step. wrote reports
// whether any frame byte may have left the client.
func (h *handle) pipeline(op byte, keys, ivals, ovals []uint64, oks []bool) (bool, error) {
	frames := (len(keys) + wire.MaxBatch - 1) / wire.MaxBatch
	base := h.id + 1
	h.id += uint64(frames)
	var wrote bool
	var werr error
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		wrote, werr = h.sendChunks(op, base, keys, ivals)
		if werr != nil {
			h.nc.SetReadDeadline(time.Now()) // no reply is coming for the rest
		}
	}()
	var err, appErr error
	for i := 0; i < frames; i++ {
		off := i * wire.MaxBatch
		end := min(off+wire.MaxBatch, len(keys))
		err = h.batchReply(base+uint64(i), ovals[off:end], oks[off:end])
		if _, isApp := err.(respError); isApp {
			if appErr == nil {
				appErr = err
			}
			err = nil
		}
		if err != nil {
			h.nc.SetWriteDeadline(time.Now()) // stop the writer; retry redials
			break
		}
	}
	<-sent
	switch {
	case werr != nil:
		return wrote, werr
	case err != nil:
		return wrote, err
	}
	return wrote, appErr
}

// sendChunks writes a batch's chunk frames, ids base onwards, gathered
// into writes of up to 64 KB. The trace rides the first chunk; its
// server spans represent the batch (per-chunk spans would multiply one
// logical op).
func (h *handle) sendChunks(op byte, base uint64, keys, ivals []uint64) (wrote bool, err error) {
	h.out = h.out[:0]
	for off, id := 0, base; off < len(keys); off, id = off+wire.MaxBatch, id+1 {
		end := min(off+wire.MaxBatch, len(keys))
		var vs []uint64
		if op == wire.OpMPut {
			vs = ivals[off:end]
		}
		if h.trace != 0 && off == 0 {
			h.out = wire.AppendTraceCtx(h.out, id, h.trace)
		}
		h.out = wire.AppendBatch(h.out, id, op, keys[off:end], vs)
		if len(h.out) < 64<<10 && end < len(keys) {
			continue
		}
		n, err := h.nc.Write(h.out)
		h.out = h.out[:0]
		wrote = wrote || n > 0
		if err != nil {
			return wrote, err
		}
	}
	return wrote, nil
}

// FindBatch looks up keys[i] for every i (dict.Batcher, remoted as one
// or more pipelined MGET frames).
func (h *handle) FindBatch(keys, vals []uint64, found []bool) {
	h.runBatch(wire.OpMGet, keys, nil, vals, found)
}

// InsertBatch inserts <keys[i], vals[i]> where absent (dict.Batcher,
// remoted as pipelined MPUT frames).
func (h *handle) InsertBatch(keys, vals []uint64, prev []uint64, inserted []bool) {
	h.runBatch(wire.OpMPut, keys, vals, prev, inserted)
}

// DeleteBatch removes keys[i] where present (dict.Batcher, remoted as
// pipelined MDELETE frames).
func (h *handle) DeleteBatch(keys []uint64, prev []uint64, deleted []bool) {
	h.runBatch(wire.OpMDelete, keys, nil, prev, deleted)
}

// maxKeptPairs is the most pairs a handle's scan buffer keeps between
// scans (64 KB); a larger one is dropped once its pairs are replayed.
const maxKeptPairs = 4096

// scan drives one remote scan: request, drain every chunk into the
// handle's pair buffer, then replay the pairs through fn. Draining
// before the callback keeps the connection free of in-flight state
// while fn runs, so fn may issue point operations on this same handle
// (the dict.Ranger contract).
func (h *handle) scan(snapshot bool, lo, hi uint64, fn func(k, v uint64) bool) {
	op := byte(wire.OpScan)
	if snapshot {
		op = wire.OpSnapScan
	}
	// Scans are idempotent: each attempt starts from an empty pair
	// buffer, and fn only runs after a full drain, so a retried scan
	// replays exactly one attempt's snapshot. The metered RTT ends with
	// the drain and excludes fn's replay.
	err := h.metered(op, func() error {
		return h.rpc(op, func(out []byte, id uint64) []byte {
			h.pairs = h.pairs[:0]
			return wire.AppendScan(out, id, snapshot, lo, hi)
		}, wire.RespScanChunk, func(payload []byte) (bool, error) {
			last, pb, err := wire.DecodeChunk(payload)
			h.pairs = append(h.pairs, pb...)
			return last, err
		})
	})
	if err != nil {
		panic(fmt.Sprintf("client: scan: %v", err))
	}
	pairs := h.pairs
	if cap(pairs) > maxKeptPairs*16 {
		h.pairs = nil // one large scan does not pin its buffer for the handle's life
	}
	for i, n := 0, len(pairs)/16; i < n; i++ {
		k, v := wire.PairAt(pairs, i)
		if !fn(k, v) {
			return
		}
	}
}

// rangeHandle adds remote weak scans (the hosted structure's handles
// implement dict.Ranger).
type rangeHandle struct{ *handle }

// Range calls fn for each pair with lo <= key <= hi in ascending key
// order, with whatever atomicity the hosted structure's Range has.
func (h *rangeHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	h.scan(false, lo, hi, fn)
}

// snapHandle adds remote linearizable scans.
type snapHandle struct{ rangeHandle }

// RangeSnapshot calls fn for each pair of one atomic snapshot of
// [lo, hi] — the snapshot the hosted structure's RangeSnapshot took,
// cross-shard linearizable when the server hosts a shared-clock
// partition.
func (h *snapHandle) RangeSnapshot(lo, hi uint64, fn func(k, v uint64) bool) {
	h.scan(true, lo, hi, fn)
}
