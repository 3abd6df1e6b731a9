package client

// Fault tolerance: reconnect + retry policy for handles.
//
// Every handle owns one TCP connection. When an operation hits a
// transport failure (dial refused, read/write error, torn frame,
// protocol mismatch, server BUSY rejection) the handle marks itself
// broken; the next attempt redials with capped exponential backoff plus
// jitter and replays the request. What may be replayed is governed by
// the ambiguity contract:
//
//   - Idempotent operations — GET, MGET, STATS, METRICS, scans — retry
//     transparently across reconnects. Re-executing them cannot change
//     the structure, so the recorded history stays linearizable.
//   - OPEN retries too: re-opening the same registry structure twice in
//     a row is equivalent to opening it once (both yield a fresh
//     instance for the same <name, keyRange>).
//   - Mutations (PUT/DELETE and their batch forms) retry only while the
//     request frame provably never left the client: a failure before any
//     frame byte reached the kernel (the failed write reports how many
//     bytes it handed over), or a server BUSY rejection (the server
//     answers BUSY at accept time and reads nothing, so nothing was
//     executed). Once a frame may have been received, a blind replay
//     could apply the mutation twice — the op fails with ErrAmbiguous
//     instead, and the caller (or the linearizability recorder, via Maybe
//     ops) owns the uncertainty.
//
// The dict.Handle methods still panic when retries are exhausted or an
// ambiguous mutation surfaces (the interfaces have no error results);
// the Try* methods expose the same operations with errors for callers
// that drive chaos drills.

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/xrand"
)

// ErrAmbiguous reports a mutation whose outcome is unknown: the request
// frame may have reached the server, but the connection died before a
// response arrived. The mutation may or may not have been applied;
// retrying it blindly could apply it twice.
var ErrAmbiguous = errors.New("mutation outcome ambiguous: request may have reached the server")

// errClientClosed terminates retry loops immediately (Close raced an op).
var errClientClosed = errors.New("client is closed")

// errBusy marks a server admission-control rejection; always safe to
// retry (the rejecting server reads nothing before answering BUSY).
var errBusy = errors.New("server busy: connection rejected at admission")

// ErrReadOnly matches (via errors.Is) the application error a follower
// replica returns for client mutations. The cluster router treats it as
// the definitive "this replica is not the primary" signal: the mutation
// was not executed, and the router re-resolves roles and retries against
// the real primary.
var ErrReadOnly = errors.New("read-only replica")

// Config tunes a Client's dial and retry behaviour. The zero value gets
// the documented defaults.
type Config struct {
	// DialTimeout bounds every TCP dial (initial and redials) so a
	// blackholed address fails fast instead of hanging a worker.
	// Default 5s.
	DialTimeout time.Duration
	// RetryAttempts is how many times one operation is retried after a
	// transport failure before giving up (8 by default). Negative
	// disables retries entirely — every transport error surfaces.
	RetryAttempts int
	// RetryBackoff is the first retry's backoff (default 2ms); it doubles
	// per attempt up to retryBackoffMax, with ±50% jitter.
	RetryBackoff time.Duration
	// TraceEvery head-samples 1 in TraceEvery operations per handle for
	// request-scoped tracing (1 = every op, 0 = tracing off). Sampled
	// ops announce a fresh 64-bit trace id with an OpTraceCtx frame —
	// only when the server advertised CapTrace — and record a client
	// span into the Client's trace collector.
	TraceEvery int
}

// retryBackoffMax caps the exponential retry backoff.
const retryBackoffMax = 250 * time.Millisecond

func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RetryAttempts == 0 {
		cfg.RetryAttempts = 8
	}
	if cfg.RetryAttempts < 0 {
		cfg.RetryAttempts = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.TraceEvery < 0 {
		cfg.TraceEvery = 0
	}
	return cfg
}

// FaultStats counts the fault-path events a Client has taken.
type FaultStats struct {
	Redials   uint64 // successful reconnects
	Retries   uint64 // operations replayed after a transport failure
	Ambiguous uint64 // mutations failed with ErrAmbiguous
	Busy      uint64 // server BUSY admission rejections absorbed
	// Mux connection generations ended by a transport failure, and by a
	// response violating the wire protocol (a bug; also logged).
	MuxTransport uint64
	MuxProtocol  uint64
}

// faultCounters is the atomic backing store (fast path never touches it).
type faultCounters struct {
	redials   atomic.Uint64
	retries   atomic.Uint64
	ambiguous atomic.Uint64
	busy      atomic.Uint64

	muxTransport atomic.Uint64
	muxProtocol  atomic.Uint64
}

// FaultStats snapshots the client's fault-path counters.
func (c *Client) FaultStats() FaultStats {
	return FaultStats{
		Redials:   c.faults.redials.Load(),
		Retries:   c.faults.retries.Load(),
		Ambiguous: c.faults.ambiguous.Load(),
		Busy:      c.faults.busy.Load(),

		MuxTransport: c.faults.muxTransport.Load(),
		MuxProtocol:  c.faults.muxProtocol.Load(),
	}
}

// dial opens one TCP connection to the server under the configured
// timeout and registers it for Close.
func (c *Client) dial() (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if !c.open {
		c.mu.Unlock()
		nc.Close()
		return nil, errClientClosed
	}
	c.conns[nc] = struct{}{}
	c.mu.Unlock()
	return nc, nil
}

// forget unregisters a connection the handle has abandoned.
func (c *Client) forget(nc net.Conn) {
	c.mu.Lock()
	delete(c.conns, nc)
	c.mu.Unlock()
	nc.Close()
}

// redial replaces the handle's dead connection with a fresh one,
// resetting the frame reader in place (no allocation: it keeps its
// buffer and drops any partial frame from the dead connection). A
// handle's first dial runs here too; it makes the frame reader and is
// not counted as a redial.
func (h *handle) redial() error {
	if h.nc != nil {
		h.c.forget(h.nc)
		h.nc = nil
	}
	nc, err := h.c.dial()
	if err != nil {
		return err
	}
	h.nc = nc
	h.broken = false
	if h.fr == nil {
		h.fr = wire.NewFrameReader(nc)
		return nil
	}
	h.fr.Reset(nc)
	h.c.faults.redials.Add(1)
	return nil
}

// backoff sleeps for the attempt'th capped exponential backoff with
// ±50% jitter drawn from rng (the caller's own stream: a plain handle's
// or the mux supervisor's), counting the retry.
func (c *Client) backoff(attempt int, rng *xrand.Rand) {
	d := c.cfg.RetryBackoff << uint(attempt)
	if d > retryBackoffMax || d <= 0 {
		d = retryBackoffMax
	}
	// Jitter in [d/2, 3d/2) so synchronized failures don't re-dial in
	// lockstep.
	d = d/2 + time.Duration(rng.Uint64n(uint64(d)))
	time.Sleep(d)
	c.faults.retries.Add(1)
}

func (h *handle) backoff(attempt int) { h.c.backoff(attempt, h.rng) }

// retryBudget returns how many retries this handle's client allows.
func (h *handle) retryBudget() int { return h.c.cfg.RetryAttempts }

// prepare readies the handle for an attempt: if the connection is known
// broken, redial (terminal on a closed client).
func (h *handle) prepare() error {
	if !h.broken {
		return nil
	}
	return h.redial()
}

// retryIdempotent runs one idempotent operation attempt under the retry
// policy: transport failures mark the connection broken and replay after
// backoff; application-level respErrors and client closure are terminal.
// Only for ops safe to re-execute (reads, STATS/METRICS, scans, OPEN) —
// the allocation-gated point/batch paths hand-roll this loop instead
// (the closure would cost an allocation per op).
func (h *handle) retryIdempotent(attemptFn func() error) error {
	for attempt := 0; ; attempt++ {
		err := h.prepare()
		if err == nil {
			err = attemptFn()
			if err == nil {
				return nil
			}
			if _, isApp := err.(respError); isApp {
				return err // healthy connection, executed exactly once
			}
			h.broken = true
			if errors.Is(err, errBusy) {
				h.c.faults.busy.Add(1)
			}
		}
		if errors.Is(err, errClientClosed) || attempt >= h.retryBudget() {
			return err
		}
		h.backoff(attempt)
	}
}

// failAmbiguous marks the connection broken and wraps the cause in
// ErrAmbiguous.
func (h *handle) failAmbiguous(op byte, cause error) error {
	h.broken = true
	h.c.faults.ambiguous.Add(1)
	return fmt.Errorf("%w (op %#x: %v)", ErrAmbiguous, op, cause)
}

// --- error-aware operation surface -----------------------------------
//
// TryHandle is the non-panicking face of a handle: the same operations
// as dict.Handle, with transport errors (including ErrAmbiguous)
// surfaced instead of panicking. Chaos drills and the linearizability
// chaos recorder type-assert handles to this.
type TryHandle interface {
	TryFind(key uint64) (uint64, bool, error)
	TryInsert(key, val uint64) (uint64, bool, error)
	TryDelete(key uint64) (uint64, bool, error)
}

// TryFind is Find with an error result instead of a panic.
func (h *handle) TryFind(key uint64) (uint64, bool, error) {
	return h.tryPoint(wire.OpGet, key, 0)
}

// TryInsert is Insert with an error result; ErrAmbiguous means the
// insert may or may not have been applied.
func (h *handle) TryInsert(key, val uint64) (uint64, bool, error) {
	return h.tryPoint(wire.OpPut, key, val)
}

// TryDelete is Delete with an error result; ErrAmbiguous means the
// delete may or may not have been applied.
func (h *handle) TryDelete(key uint64) (uint64, bool, error) {
	return h.tryPoint(wire.OpDelete, key, 0)
}

// newRetryRNG builds a handle's jitter stream.
func newRetryRNG(hint int) *xrand.Rand {
	return xrand.New(0x5DEECE66D + uint64(hint)*0x9E3779B97F4A7C15)
}
