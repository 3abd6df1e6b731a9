package client

// Fault tolerance: reconnect + retry policy for handles.
//
// Every handle owns one TCP connection, and every request it makes —
// point op, batch, scan, control RPC, and a Mux's pass over its shared
// handle — is one attempt closure run by one loop, retry. An attempt
// reports whether any frame byte may have left the client and what went
// wrong; the loop alone decides what happens next:
//
//   - A transport failure (dial refused, read/write error, torn frame)
//     or a protocol error (mismatched id or opcode, a reply that fails
//     to decode) marks the connection broken; the next attempt redials
//     with capped exponential backoff plus jitter and replays.
//   - A BUSY echoing the request's id is a rate-limit rejection: the
//     server read the request, executed nothing and keeps the
//     connection, so the request is resent on it after backing off.
//   - A BUSY with id 0 is an admission rejection: the server answered
//     at accept time, read nothing and closed the connection.
//   - A RespError is terminal: the request was received, executed and
//     rejected exactly once. So is a closed client.
//
// What may be replayed is governed by the ambiguity contract:
// idempotent requests — GET, MGET, scans, STATS, METRICS, TRACE_DUMP,
// and OPEN and PROMOTE, whose repeats converge on the state of one —
// always replay. Mutations (PUT/DELETE and their batch forms) replay
// only while the request provably never executed: no frame byte
// reached the kernel (the failed write reports how many bytes it
// handed over), or the server answered BUSY. Once a frame may have been
// received, a blind replay could apply the mutation twice — the op
// fails with ErrAmbiguous instead, and the caller (or the
// linearizability recorder, via Maybe ops) owns the uncertainty.
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

// errRateLimited marks a BUSY echoing the request's id: the connection
// is healthy and the request was not executed.
var errRateLimited = errors.New("server busy: request rate-limited")

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
	Ambiguous uint64 // mutating requests (a mux pass is one) failed with ErrAmbiguous
	Busy      uint64 // server BUSY rejections absorbed (admission and rate limit)
}

// faultCounters is the atomic backing store (fast path never touches it).
type faultCounters struct {
	redials   atomic.Uint64
	retries   atomic.Uint64
	ambiguous atomic.Uint64
	busy      atomic.Uint64
}

// FaultStats snapshots the client's fault-path counters.
func (c *Client) FaultStats() FaultStats {
	return FaultStats{
		Redials:   c.faults.redials.Load(),
		Retries:   c.faults.retries.Load(),
		Ambiguous: c.faults.ambiguous.Load(),
		Busy:      c.faults.busy.Load(),
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
// ±50% jitter drawn from the handle's own stream, counting the retry.
func (h *handle) backoff(attempt int) {
	c := h.c
	d := c.cfg.RetryBackoff << uint(attempt)
	if d > retryBackoffMax || d <= 0 {
		d = retryBackoffMax
	}
	// Jitter in [d/2, 3d/2) so synchronized failures don't re-dial in
	// lockstep.
	d = d/2 + time.Duration(h.rng.Uint64n(uint64(d)))
	time.Sleep(d)
	c.faults.retries.Add(1)
}

// retry runs attempt under the retry policy above until it succeeds or
// fails terminally. op names the request: a mutation's attempt that
// wrote a frame byte and then failed, BUSY aside, is ErrAmbiguous. The
// closures handed to retry do not escape, so the loop costs the
// allocation-gated paths nothing.
func (h *handle) retry(op byte, attempt func() (wrote bool, err error)) error {
	mutation := op == wire.OpPut || op == wire.OpDelete || op == wire.OpMPut || op == wire.OpMDelete
	for n := 0; ; n++ {
		var err error
		if h.broken {
			err = h.redial()
		}
		if err == nil {
			var wrote bool
			wrote, err = attempt()
			if _, isApp := err.(respError); isApp || err == nil {
				return err // healthy connection, executed exactly once
			}
			switch {
			case errors.Is(err, errRateLimited):
				h.c.faults.busy.Add(1) // resend on the same connection
			case errors.Is(err, errBusy):
				h.c.faults.busy.Add(1)
				h.broken = true
			case mutation && wrote:
				h.broken = true
				h.c.faults.ambiguous.Add(1)
				return fmt.Errorf("%w (op %#x: %v)", ErrAmbiguous, op, err)
			default:
				h.broken = true
			}
		}
		if errors.Is(err, errClientClosed) || n >= h.c.cfg.RetryAttempts {
			return err
		}
		h.backoff(n)
	}
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
