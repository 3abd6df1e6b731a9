// Package pmem simulates byte-addressable persistent memory with
// cache-line flush semantics, standing in for the Intel Optane DCPMM the
// paper evaluates on.
//
// The model: an Arena is an array of 64-bit words grouped into 64-byte
// lines (8 words). Loads and stores act on the volatile view — the "CPU
// cache" — and are visible to all threads immediately. A word becomes
// durable only when its line is flushed (Flush models a clwb immediately
// followed by an sfence, which is how the paper issues all of its
// flushes), or when the crash adversary decides an unflushed dirty line
// was evicted by the cache hardware anyway — both outcomes are legal on
// real PM, so recovery code must tolerate both.
//
// Crash(p) simulates power loss: each dirty (modified-since-flush) line is
// independently persisted with probability p (cache eviction), then the
// volatile view is replaced by the persistent one. A Failpoint can inject
// a panic after a chosen number of persistence events so tests can crash
// concurrent workloads at arbitrary interior points of tree operations.
package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/xrand"
)

// LineWords is the number of 64-bit words per simulated cache line (64
// bytes, matching the clwb granularity on the paper's hardware).
const LineWords = 8

// ErrCrash is the panic value raised when a failpoint triggers. Test
// workers recover() it and treat the operation as interrupted by a crash.
var ErrCrash = fmt.Errorf("pmem: simulated crash (failpoint)")

// Arena is a simulated persistent heap. All exported methods are safe for
// concurrent use except Crash, which requires that no other method is
// invoked concurrently (a real power failure stops all CPUs too; tests
// arrange this by stopping workers first).
//
// The layout keeps what every Store and Flush reads off the lines that
// steady-state traffic writes: the first two cache lines hold the slice
// headers and failpoint beside fields only Crash writes, the bump cursor
// has a line of its own, and the flush and fence counts are striped by
// the flushed line's index over lines of their own, in an allocation of
// their own (TestArenaLayout pins this).
type Arena struct {
	words     []atomic.Uint64 // volatile view (cache + memory)
	persisted []atomic.Uint64 // what survives a crash
	dirty     []atomic.Bool   // per-line modified-since-flush
	counts    []countStripe   // flush and fence counts

	failpoint atomic.Int64 // < 0: disarmed; otherwise remaining events
	crashes   atomic.Uint64
	mu        sync.Mutex // serializes Crash bookkeeping
	_         [2*lineBytes - 120]byte

	next atomic.Uint64 // bump allocation cursor (in words)
	_    [lineBytes - 8]byte
}

// lineBytes is the size of a host cache line.
const lineBytes = 64

// countStripes is how many lines the flush and fence counts are
// spread over.
const countStripes = 8

// countStripe is one line's share of the flush and fence counts.
type countStripe struct {
	flushes, fences atomic.Uint64
	_               [lineBytes - 16]byte
}

// stripe returns the count stripe for a flush of line.
func (a *Arena) stripe(line uint64) *countStripe { return &a.counts[line%countStripes] }

// New returns an arena of capWords 64-bit words, all zero and persisted.
func New(capWords int) *Arena {
	if capWords <= 0 || capWords%LineWords != 0 {
		panic("pmem: capacity must be a positive multiple of LineWords")
	}
	a := &Arena{
		words:     make([]atomic.Uint64, capWords),
		persisted: make([]atomic.Uint64, capWords),
		dirty:     make([]atomic.Bool, capWords/LineWords),
		counts:    make([]countStripe, countStripes),
	}
	a.failpoint.Store(disarmed)
	return a
}

// Cap returns the arena capacity in words.
func (a *Arena) Cap() uint64 { return uint64(len(a.words)) }

// Alloc reserves n contiguous words, line-aligned, and returns the offset
// of the first. Alloc never reuses freed space — higher layers (the
// persistent tree's slot allocator) recycle. It panics when the arena is
// exhausted, as a real PM pool would fault.
func (a *Arena) Alloc(n uint64) uint64 {
	n = (n + LineWords - 1) / LineWords * LineWords
	off := a.next.Add(n) - n
	if off+n > uint64(len(a.words)) {
		panic(fmt.Sprintf("pmem: arena exhausted (cap %d words)", len(a.words)))
	}
	return off
}

// Allocated returns the bump-allocation high-water mark in words.
func (a *Arena) Allocated() uint64 { return a.next.Load() }

// Load returns the volatile (cache-visible) value of the word at off.
func (a *Arena) Load(off uint64) uint64 { return a.words[off].Load() }

// Store writes the word at off in the volatile view and marks its line
// dirty. The value is not durable until the line is flushed or evicted.
func (a *Arena) Store(off, val uint64) {
	a.maybeFail()
	a.words[off].Store(val)
	a.dirty[off/LineWords].Store(true)
}

// Flush makes the line containing off durable, modelling clwb + sfence:
// the line's current volatile contents are copied to the persistent view.
func (a *Arena) Flush(off uint64) {
	a.maybeFail()
	line := off / LineWords
	a.flushLine(line)
	c := a.stripe(line)
	c.flushes.Add(1)
	c.fences.Add(1)
}

// FlushRange flushes every line overlapping [off, off+n) words. It counts
// one fence but one flush per line, like a clwb loop ending in one sfence.
func (a *Arena) FlushRange(off, n uint64) {
	a.maybeFail()
	first := off / LineWords
	last := (off + n - 1) / LineWords
	for l := first; l <= last; l++ {
		a.flushLine(l)
	}
	c := a.stripe(first)
	c.flushes.Add(last - first + 1)
	c.fences.Add(1)
}

func (a *Arena) flushLine(line uint64) {
	base := line * LineWords
	for i := uint64(0); i < LineWords; i++ {
		a.persisted[base+i].Store(a.words[base+i].Load())
	}
	a.dirty[line].Store(false)
}

// Fence records an sfence with no preceding clwb (ordering only; in this
// model every Flush is already ordered, so Fence is bookkeeping).
func (a *Arena) Fence() { a.counts[0].fences.Add(1) }

// Stats reports persistence-event counters.
type Stats struct {
	Flushes, Fences, Crashes uint64
}

// Stats returns cumulative counters.
func (a *Arena) Stats() Stats {
	st := Stats{Crashes: a.crashes.Load()}
	for i := range a.counts {
		st.Flushes += a.counts[i].flushes.Load()
		st.Fences += a.counts[i].fences.Load()
	}
	return st
}

// ResetStats zeroes the flush/fence counters (crash count is kept).
func (a *Arena) ResetStats() {
	for i := range a.counts {
		a.counts[i].flushes.Store(0)
		a.counts[i].fences.Store(0)
	}
}

// Crash simulates power loss. Each dirty line is persisted with
// probability evictProb (the cache may have evicted it before the power
// failed), the volatile view is replaced with the persistent image, and
// any armed failpoint is disarmed. No other Arena method may run
// concurrently with Crash.
func (a *Arena) Crash(evictProb float64, seed uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.failpoint.Store(disarmed)
	rng := xrand.New(seed)
	for l := range a.dirty {
		if a.dirty[l].Load() && rng.Float64() < evictProb {
			a.flushLine(uint64(l))
		}
	}
	for i := range a.words {
		a.words[i].Store(a.persisted[i].Load())
	}
	for l := range a.dirty {
		a.dirty[l].Store(false)
	}
	a.crashes.Add(1)
}

// disarmed is the failpoint sentinel meaning "no crash scheduled". It is
// far below zero so that post-trigger decrements cannot reach it.
const disarmed = -(1 << 62)

// SetFailpoint arms a crash trigger: the n-th next persistence event
// (Store or Flush call) panics with ErrCrash in whichever goroutine
// performs it, and every subsequent event panics too until Crash() disarms
// the failpoint. Pass a negative n to disarm.
func (a *Arena) SetFailpoint(n int64) {
	if n < 0 {
		a.failpoint.Store(disarmed)
		return
	}
	a.failpoint.Store(n)
}

// FailpointTriggered reports whether the crash trigger has fired: every
// subsequent persistence event will panic with ErrCrash.
func (a *Arena) FailpointTriggered() bool {
	v := a.failpoint.Load()
	return v > disarmed && v <= 0
}

func (a *Arena) maybeFail() {
	if a.failpoint.Load() <= disarmed {
		return
	}
	if a.failpoint.Add(-1) <= 0 {
		panic(ErrCrash)
	}
}

// PersistedLoad returns the durable value of the word at off. It is meant
// for recovery code and test assertions, not for normal operation.
func (a *Arena) PersistedLoad(off uint64) uint64 { return a.persisted[off].Load() }
