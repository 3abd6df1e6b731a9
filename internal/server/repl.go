package server

// Primary/follower replication: the sequenced op log, the per-follower
// log-shipping senders (primary side), the REPLICATE apply sink
// (follower side), and promotion.
//
// Model: each replicated server is one replica of one keyspace
// partition. The primary applies every mutation locally, appends the
// *effective* mutations (an insert that actually inserted, a delete
// that actually deleted) to an in-memory sequenced op log, and ships
// contiguous log runs to each follower over REPLICATE frames. A
// mutation is acknowledged to the client only once the ack policy is
// met — with AckFollowers=1 (the sync-1 default), once at least one
// follower has applied it — so every client-acknowledged write exists
// on at least one surviving replica when the primary dies, and
// promoting the follower with the highest applied sequence loses no
// acked write (per-follower streams are gapless, so the maximal
// follower's log is a superset of every committed prefix).
//
// Order fidelity: two concurrent same-key mutations must reach
// followers in the order their effects landed in the tree, or replica
// state diverges. The primary therefore applies and logs each mutation
// under one of 64 key-stripe locks — apply and append are atomic per
// stripe — so the log's same-key order equals the tree's. Cross-key
// order may differ from wall-clock order, which is state-equivalent
// (operations on distinct keys commute). The follower applies entries
// strictly in sequence order under one apply mutex, on the sink
// connection's own goroutine like any request: client connections,
// busy or parked on a stalled peer, do not hold up the primary's
// commits, and the REPL_ACK is written before that goroutine reads the
// next frame.
//
// Reads on the primary return only committed state: a read snapshots
// the log position covering everything it may have observed (under the
// key's stripe lock) and waits for that position to commit before
// responding. Without the wait, a read could observe a mutation that
// dies with the primary — a value no surviving replica has — and a
// post-failover history would be unlinearizable. Followers serve reads
// immediately, stamped with their applied position; the client router's
// read-your-writes fence (see internal/cluster) rejects stale ones.
//
// Followers retain every applied entry as their own log, so a promoted
// follower can immediately ship to (and backfill) the partition's other
// followers from wherever their cursors stand: each sender opens with a
// zero-entry probe REPLICATE, and the follower's REPL_ACK carries its
// applied position. After promotion a replica refuses further
// REPLICATE frames — a stale primary that was merely partitioned away
// is fenced at the first frame it ships (full split-brain handling,
// where the deposed primary also keeps serving clients, is out of
// scope: the failover drills kill the primary process outright).
//
// The op log is in-memory and unbounded — replication here is for
// redundancy, not durability; a process that restarts rejoins empty as
// a fresh follower and is backfilled from seq 1. Log compaction is an
// open ROADMAP item.

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/trace"
	"repro/internal/wire"
)

// replEntry is one effective mutation in the op log. Entry i of the log
// has sequence number i+1 (streams are gapless from seq 1; see the
// package comment on why replicas always hold a full prefix). trace is
// the originating request's trace id (0: untraced); it ships with the
// entry so follower apply spans join the same trace.
type replEntry struct {
	kind  byte // wire.ReplPut / wire.ReplDelete
	key   uint64
	val   uint64
	trace uint64
}

// numStripes is the key-stripe lock count for apply/log atomicity.
const numStripes = 64

// replState is the replication half of a Server. Nil on standalone
// servers — every hook checks for that and falls through to the
// original path, keeping the standalone hot path untouched.
type replState struct {
	s         *Server
	partition uint64
	role      atomic.Int32 // wire.RolePrimary / wire.RoleFollower

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on append, commit advance, and close
	log     []replEntry
	lastSeq uint64 // == len(log); mirrored in lastSeqA for lock-free reads
	// committed is the highest seq satisfying the ack policy: the
	// ackNeed-th largest follower applied position (or lastSeq when the
	// sender set is empty — a primary with no followers degrades to
	// unreplicated acks rather than stalling forever).
	committed uint64
	ackNeed   int
	senders   []*replSender
	ackedBuf  []uint64 // recomputeCommitted's scratch
	closed    bool

	lastSeqA atomic.Uint64 // mirror of lastSeq (read under stripe locks)
	applied  atomic.Uint64 // follower: highest applied seq (STATS, read stamps)

	applyMu sync.Mutex  // serializes follower apply across sink connections
	applyH  dict.Handle // follower's apply handle, created under applyMu

	stripe [numStripes]sync.Mutex

	// shipPend maps recently logged traced mutations to their append
	// stamps so the first covering REPL_ACK can close a repl-ship span.
	// Bounded: under trace floods the oldest pending ships win and the
	// rest simply go unattributed.
	shipMu   sync.Mutex
	shipPend []shipRec

	wg sync.WaitGroup
}

// shipRec is one pending repl-ship attribution: a traced log entry
// waiting for a covering follower ack.
type shipRec struct {
	seq   uint64
	trace uint64
	start time.Time
}

// shipPendMax bounds the pending repl-ship table.
const shipPendMax = 128

func newReplState(s *Server, cfg Config) *replState {
	r := &replState{s: s, partition: cfg.Partition}
	r.cond = sync.NewCond(&r.mu)
	if cfg.Follower {
		r.role.Store(wire.RoleFollower)
	} else {
		r.role.Store(wire.RolePrimary)
		ack := cfg.AckFollowers
		if ack == 0 {
			ack = 1 // sync-1 default
		}
		if ack < 0 {
			ack = 0
		}
		r.startSenders(cfg.Followers, ack)
	}
	return r
}

// startSenders launches one log-shipping sender per follower address
// and installs the ack policy (clamped to the follower count — a
// policy that can never be met would stall every write forever).
func (r *replState) startSenders(followers []string, ack int) {
	r.mu.Lock()
	if ack > len(followers) {
		ack = len(followers)
	}
	r.ackNeed = ack
	for _, addr := range followers {
		sd := &replSender{r: r, addr: addr, idx: len(r.senders)}
		r.senders = append(r.senders, sd)
		r.wg.Add(1)
		go sd.run()
	}
	r.recomputeCommitted()
	r.mu.Unlock()
}

// close wakes every commit waiter and sender; called from Server.Close.
func (r *replState) close() {
	r.mu.Lock()
	r.closed = true
	for _, sd := range r.senders {
		if sd.nc != nil {
			sd.nc.Close()
		}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// recomputeCommitted advances committed from the senders' applied
// positions. Caller holds r.mu. Commit never regresses: a follower
// that reconnects empty cannot un-commit what an earlier ack proved
// was replicated.
func (r *replState) recomputeCommitted() {
	var c uint64
	if r.ackNeed == 0 || len(r.senders) == 0 {
		c = r.lastSeq
	} else {
		acked := r.ackedBuf[:0]
		for _, sd := range r.senders {
			acked = append(acked, sd.acked.Load())
		}
		r.ackedBuf = acked
		slices.Sort(acked)
		c = acked[len(acked)-r.ackNeed]
		if c > r.lastSeq {
			c = r.lastSeq
		}
	}
	if c > r.committed {
		r.committed = c
		r.cond.Broadcast()
	}
}

// waitCommitted blocks until seq is committed under the ack policy.
// It returns false only when the server closed first — the caller must
// then drop the response (the outcome is genuinely ambiguous: the
// mutation applied here but may exist on no surviving replica, and the
// dying connection will surface ErrAmbiguous at the client).
func (r *replState) waitCommitted(seq uint64) bool {
	r.mu.Lock()
	for r.committed < seq && !r.closed {
		r.cond.Wait()
	}
	ok := r.committed >= seq
	r.mu.Unlock()
	return ok
}

// committedSeq returns the current committed position.
func (r *replState) committedSeq() uint64 {
	r.mu.Lock()
	c := r.committed
	r.mu.Unlock()
	return c
}

// replSeq is the STATS position: the commit position on a primary, the
// applied position on a follower.
func (r *replState) replSeq() uint64 {
	if r.role.Load() == wire.RoleFollower {
		return r.applied.Load()
	}
	return r.committedSeq()
}

// append logs one effective mutation and returns its seq. On a primary
// the caller holds the key's stripe lock (the apply+append atomicity
// that keeps log order equal to tree order per key); a follower's
// caller holds applyMu. A follower has no senders, so its log commits
// as it grows, as a promoted follower's whole log does.
func (r *replState) append(kind byte, key, val, traceID uint64) uint64 {
	r.mu.Lock()
	r.log = append(r.log, replEntry{kind: kind, key: key, val: val, trace: traceID})
	r.lastSeq++
	seq := r.lastSeq
	r.lastSeqA.Store(seq)
	if r.ackNeed == 0 || len(r.senders) == 0 {
		r.committed = seq
	}
	r.cond.Broadcast() // wake senders (and ackNeed==0 commit waiters)
	r.mu.Unlock()
	return seq
}

// applyOne runs one primary mutation: apply on the worker's handle and
// log if effective, atomically per key stripe. The returned seq is the
// entry's seq (effective) or the covering log position (no-op); the
// caller must waitCommitted(seq) before responding. A traced effective
// mutation also registers a pending repl-ship attribution.
func (r *replState) applyOne(h dict.Handle, op byte, key, val, traceID uint64) (v uint64, applied bool, seq uint64) {
	st := &r.stripe[key%numStripes]
	st.Lock()
	var kind byte
	switch op {
	case wire.OpPut, wire.OpMPut:
		v, applied = h.Insert(key, val)
		kind = wire.ReplPut
	case wire.OpDelete, wire.OpMDelete:
		v, applied = h.Delete(key)
		kind = wire.ReplDelete
	}
	if applied {
		seq = r.append(kind, key, val, traceID)
	} else {
		seq = r.lastSeqA.Load()
	}
	st.Unlock()
	if applied && traceID != 0 {
		r.noteShip(seq, traceID)
	}
	return v, applied, seq
}

// noteShip registers a traced logged mutation for ship-span attribution
// once a covering REPL_ACK arrives (drainShips).
func (r *replState) noteShip(seq, traceID uint64) {
	r.shipMu.Lock()
	if len(r.shipPend) < shipPendMax {
		r.shipPend = append(r.shipPend, shipRec{seq: seq, trace: traceID, start: time.Now()})
	}
	r.shipMu.Unlock()
}

// drainShips closes repl-ship spans for every pending traced mutation
// the ack position covers: append-to-first-covering-ack, which is the
// replication leg a client-visible commit actually waited on.
func (r *replState) drainShips(acked uint64, hint int) {
	r.shipMu.Lock()
	kept := r.shipPend[:0]
	for _, rec := range r.shipPend {
		if rec.seq <= acked {
			r.s.tracer.Record(hint, trace.Span{
				TraceID: rec.trace, Kind: trace.KindReplShip,
				Start: uint64(rec.start.UnixNano()), Dur: sinceNs(rec.start), Aux: rec.seq,
			})
		} else {
			kept = append(kept, rec)
		}
	}
	r.shipPend = kept
	r.shipMu.Unlock()
}

// findOne runs one primary read: the value plus the log position
// covering everything the read may have observed. The stripe lock
// orders the position snapshot after any same-key apply+append the
// read saw; the caller must waitCommitted(seq) before responding, so
// a value no surviving replica holds is never served.
func (r *replState) findOne(h dict.Handle, key uint64) (v uint64, found bool, seq uint64) {
	st := &r.stripe[key%numStripes]
	st.Lock()
	v, found = h.Find(key)
	seq = r.lastSeqA.Load()
	st.Unlock()
	return v, found, seq
}

// --- worker dispatch --------------------------------------------------

// serveRepl serves GET/PUT/DELETE and MGET/MPUT/MDELETE on a
// replicated server: a point request is a batch of one key, staged in
// the worker's scratch. Keys run one by one through the stripe-locked
// log path (the trees' native batch descents would bypass the
// apply+append atomicity); one commit wait covers the request, and the
// reply carries the covering seq. A dropped response (waitCommitted
// returning false: the server closed mid-wait) is deliberate — the
// dying connection surfaces ErrAmbiguous at the client, which is the
// truthful classification.
func (w *worker) serveRepl(req *request) {
	r := w.s.repl
	c := w.c
	point := req.Op == wire.OpGet || req.Op == wire.OpPut || req.Op == wire.OpDelete
	keys, ivals := req.Keys, req.Vals
	if point {
		w.key1[0], w.val1[0] = req.Key, req.Val
		keys, ivals = w.key1[:], w.val1[:]
	}
	n := len(keys)
	if cap(w.vals) < n {
		w.vals = make([]uint64, n)
		w.oks = make([]bool, n)
	}
	vals, oks := w.vals[:n], w.oks[:n]
	read := req.Op == wire.OpGet || req.Op == wire.OpMGet
	var seq uint64
	if r.role.Load() == wire.RoleFollower {
		if !read {
			c.sendErr(req.ID, "follower: read-only replica")
			return
		}
		// Snapshot the apply position BEFORE the reads: entries <= seq
		// were applied before the first Find started, so the reported
		// position never overstates what the reads observed (it may
		// understate, which only costs the router a conservative primary
		// fallback — overstating would defeat the read-your-writes fence).
		seq = r.applied.Load()
		for i, k := range keys {
			vals[i], oks[i] = w.h.Find(k)
		}
	} else {
		put := req.Op == wire.OpPut || req.Op == wire.OpMPut
		for i, k := range keys {
			var ks uint64
			switch {
			case read:
				vals[i], oks[i], ks = r.findOne(w.h, k)
			case put:
				vals[i], oks[i], ks = r.applyOne(w.h, req.Op, k, ivals[i], req.traceID)
			default:
				vals[i], oks[i], ks = r.applyOne(w.h, req.Op, k, 0, req.traceID)
			}
			seq = max(seq, ks)
		}
		if !w.commitWait(req, seq) {
			return
		}
	}
	if point {
		c.out = wire.AppendRespPointSeq(c.out, req.ID, vals[0], oks[0], seq)
	} else {
		c.out = wire.AppendRespBatchSeq(c.out, req.ID, vals, oks, seq)
	}
}

// commitWait blocks the connection until seq is committed, recording the
// wait in the repl_commit_wait_ns histogram (and as a commit-wait span
// on traced requests). False means the server closed mid-wait — drop
// the response (see waitCommitted).
func (w *worker) commitWait(req *request, seq uint64) bool {
	t0 := time.Now()
	ok := w.s.repl.waitCommitted(seq)
	cw := time.Since(t0)
	if cw < 0 {
		cw = 0
	}
	w.s.metrics.commitWait.Record(w.idx, uint64(cw))
	req.commitWait = cw
	if req.traceID != 0 {
		w.s.tracer.Record(w.idx, trace.Span{
			TraceID: req.traceID, Kind: trace.KindCommitWait, Op: req.Op,
			Start: uint64(t0.UnixNano()), Dur: uint64(cw), Aux: seq,
		})
	}
	return ok
}

// --- follower sink ----------------------------------------------------

// applyReplicate applies one REPLICATE frame on a follower: a gapless
// extension of the applied prefix (duplicate prefixes from sender
// retries are skipped; a gap is a protocol error). Returns the new
// applied position.
func (r *replState) applyReplicate(req *wire.Request) (uint64, error) {
	if r.role.Load() != wire.RoleFollower {
		return 0, fmt.Errorf("promoted: no longer a follower")
	}
	firstSeq := req.Key
	n := uint64(len(req.Ops))
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	applied := r.applied.Load()
	if n > 0 {
		if firstSeq > applied+1 {
			return 0, fmt.Errorf("replication gap: first seq %d, applied %d", firstSeq, applied)
		}
		if r.applyH == nil {
			r.applyH = r.s.cur.Load().d.NewHandle()
		}
		for i := uint64(0); i < n; i++ {
			seq := firstSeq + i
			if seq <= applied {
				continue // duplicate from a sender retry
			}
			var tid uint64
			if uint64(len(req.Traces)) == n {
				tid = req.Traces[i]
			}
			t0 := time.Now()
			k, val := req.Keys[i], req.Vals[i]
			switch req.Ops[i] {
			case wire.ReplPut:
				r.applyH.Insert(k, val)
			case wire.ReplDelete:
				r.applyH.Delete(k)
			}
			// Retain the entry (trace id included) as our own log so
			// promotion can backfill laggard followers from seq 1. The
			// applied prefix is gapless, so the entry lands at seq.
			r.append(req.Ops[i], k, val, tid)
			applied = seq
			r.applied.Store(seq)
			if tid != 0 {
				r.s.tracer.Record(int(seq), trace.Span{
					TraceID: tid, Kind: trace.KindApply,
					Start: uint64(t0.UnixNano()), Dur: sinceNs(t0), Aux: seq,
				})
			}
		}
	}
	return applied, nil
}

// promote turns this follower into the partition's primary, shipping to
// addrs under the given ack policy. Idempotent on an already-promoted
// replica with the same ack/addrs (the router may retry PROMOTE over a
// flaky network).
func (r *replState) promote(ack int, addrs []string) error {
	if !r.role.CompareAndSwap(wire.RoleFollower, wire.RolePrimary) {
		if r.role.Load() == wire.RolePrimary {
			return nil // already promoted
		}
		return fmt.Errorf("cannot promote: not a follower")
	}
	r.applyMu.Lock() // let any in-flight REPLICATE apply finish
	r.mu.Lock()
	// Everything this replica holds is the partition's new authoritative
	// prefix: the old primary only acked seqs some follower applied, and
	// the router promotes the maximal follower, so the acked prefix is
	// contained in [1, lastSeq].
	r.committed = r.lastSeq
	r.mu.Unlock()
	r.applyMu.Unlock()
	r.startSenders(addrs, ack)
	r.s.metrics.failovers.Inc(0)
	if r.s.logf != nil {
		r.s.logf("server: promoted to primary partition=%d seq=%d followers=%v", r.partition, r.lastSeqA.Load(), addrs)
	}
	return nil
}

// --- log-shipping sender ----------------------------------------------

// replSender ships the log to one follower over its own connection,
// stop-and-wait: one REPLICATE frame in flight, each ack advancing the
// cursor (in-order delivery for free, and the follower's cumulative
// ack doubles as the reconnect cursor). On any error it redials and
// re-probes; the follower's gap check makes duplicate delivery safe.
type replSender struct {
	r     *replState
	addr  string
	idx   int           // position among senders (metrics/trace stripe hint)
	acked atomic.Uint64 // follower's applied position per its last ack

	nc net.Conn         // guarded by r.mu (close() severs a blocked sender)
	fr wire.FrameReader // REPL_ACK reader, Reset per connection
}

// replBatchMax caps entries per REPLICATE frame.
const replBatchMax = 256

func (sd *replSender) run() {
	r := sd.r
	defer r.wg.Done()
	var (
		kinds  []byte
		keys   []uint64
		vals   []uint64
		traces []uint64
	)
	backoff := 10 * time.Millisecond
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
		nc, err := net.DialTimeout("tcp", sd.addr, 2*time.Second)
		if err != nil {
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = 10 * time.Millisecond
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			nc.Close()
			return
		}
		sd.nc = nc
		r.mu.Unlock()
		sd.stream(nc, &kinds, &keys, &vals, &traces)
		r.mu.Lock()
		sd.nc = nil
		r.mu.Unlock()
		nc.Close()
		// Brief pause before redialing so a persistently rejecting peer
		// (e.g. a fenced ex-follower) doesn't turn this into a hot loop.
		time.Sleep(10 * time.Millisecond)
	}
}

// stream drives one connection: probe for the follower's cursor, then
// ship runs as the log grows. Returns on any error (caller redials).
// Runs containing traced entries ship the traced REPLICATE form so the
// follower's apply spans join the originating traces.
func (sd *replSender) stream(nc net.Conn, kinds *[]byte, keys, vals, traces *[]uint64) {
	r := sd.r
	sd.fr.Reset(nc)
	var out []byte
	// Probe: a zero-entry REPLICATE whose ack tells us where to resume.
	out = wire.AppendReplicate(out[:0], 1, 0, nil, nil, nil, nil)
	cursor, err := sd.roundTrip(nc, out)
	if err != nil {
		return
	}
	sd.noteAck(cursor)
	for {
		// Wait for log growth past the cursor.
		r.mu.Lock()
		for r.lastSeq <= cursor && !r.closed {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		end := r.lastSeq
		if end > cursor+replBatchMax {
			end = cursor + replBatchMax
		}
		*kinds, *keys, *vals, *traces = (*kinds)[:0], (*keys)[:0], (*vals)[:0], (*traces)[:0]
		anyTrace := false
		for seq := cursor + 1; seq <= end; seq++ {
			e := r.log[seq-1]
			*kinds = append(*kinds, e.kind)
			*keys = append(*keys, e.key)
			*vals = append(*vals, e.val)
			*traces = append(*traces, e.trace)
			if e.trace != 0 {
				anyTrace = true
			}
		}
		r.mu.Unlock()
		var runTraces []uint64 // nil keeps an untraced run's frame in the untraced form
		if anyTrace {
			runTraces = *traces
		}
		out = wire.AppendReplicate(out[:0], 1, cursor+1, *kinds, *keys, *vals, runTraces)
		t0 := time.Now()
		applied, err := sd.roundTrip(nc, out)
		if err != nil {
			return
		}
		// Ship→ack latency, only for frames that carried entries (the
		// probe and idle waits would poison the histogram).
		r.s.metrics.shipAck.Record(sd.idx, sinceNs(t0))
		cursor = applied
		sd.noteAck(applied)
	}
}

// roundTrip writes one REPLICATE frame and reads its REPL_ACK.
func (sd *replSender) roundTrip(nc net.Conn, frame []byte) (uint64, error) {
	nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(frame); err != nil {
		return 0, err
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, op, payload, err := sd.fr.Next()
	if err != nil {
		return 0, err
	}
	if op != wire.RespReplAck {
		if op == wire.RespError {
			return 0, fmt.Errorf("follower rejected replication: %s", payload)
		}
		return 0, fmt.Errorf("unexpected repl response op %#x", op)
	}
	return wire.DecodeReplAck(payload)
}

// noteAck records a follower ack, advances the commit position, and
// closes any repl-ship spans the ack covers.
func (sd *replSender) noteAck(applied uint64) {
	r := sd.r
	r.s.metrics.replAcks.Inc(0)
	if applied > sd.acked.Load() {
		sd.acked.Store(applied)
	}
	r.mu.Lock()
	r.recomputeCommitted()
	r.mu.Unlock()
	r.drainShips(applied, sd.idx)
}
