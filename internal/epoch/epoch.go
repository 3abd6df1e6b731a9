// Package epoch implements epoch-based memory reclamation, the Go
// analogue of the DEBRA scheme the paper uses for all evaluated data
// structures (§6 "Memory reclamation").
//
// The volatile trees in this repository lean on the Go garbage collector,
// which already provides DEBRA's guarantee (a node is not reused while any
// thread may still hold a reference). The persistent trees cannot: their
// nodes live at fixed offsets in a simulated PM arena that Go's GC does
// not see, so freed node slots must not be recycled while a lock-free
// traversal might still dereference them. This package provides that
// grace period.
//
// Protocol: each worker owns a Handle. Operations are bracketed by
// Enter/Exit. Resources retired in global epoch e are handed to the free
// callback only after the global epoch reaches e+2, which requires every
// handle inside a critical section to have observed e+1 — by which point
// no live traversal can have started before the retire.
package epoch

import (
	"sync"
	"sync/atomic"
)

// idle is the announcement value meaning "not in a critical section".
const idle = ^uint64(0)

// limboBuckets is the number of retire generations kept per handle. Three
// suffice: objects retired in epoch e are freed when the epoch reaches
// e+2, so at most three generations are pending at once. Bucket e mod 3
// holds epoch e's retirees and is tagged with e.
const limboBuckets = 3

// limboAdvance is how many retirees a handle's current generation holds
// before every Exit tries to advance the epoch, not only every 64th. It
// bounds what a lone churning thread keeps in limbo to a few
// generations of this size, however few operations retire.
const limboAdvance = 16

// Manager coordinates epochs for one shared structure. Create one per
// tree with NewManager; register one Handle per worker goroutine.
type Manager[T any] struct {
	epoch   atomic.Uint64
	free    func(T)
	mu      sync.Mutex // guards registration
	handles atomic.Pointer[[]*Handle[T]]
}

// Handle is a worker's registration with a Manager. A Handle must not be
// used concurrently. Enter/Exit nest: only the outermost pair opens and
// closes the critical section, so an operation running inside another
// operation's section (e.g. a point op invoked from a scan callback)
// cannot end the outer section early.
type Handle[T any] struct {
	m        *Manager[T]
	announce atomic.Uint64
	limbo    [limboBuckets][]T
	tag      [limboBuckets]uint64 // the epoch limbo[b]'s retirees were retired in
	ops      uint64
	depth    int          // Enter nesting level (handle is single-owner)
	_        [64 - 8]byte // avoid false sharing between handles' announcements
}

// NewManager returns a manager that disposes retired resources by calling
// free (e.g. returning a PM node slot to a free list).
func NewManager[T any](free func(T)) *Manager[T] {
	m := &Manager[T]{free: free}
	hs := make([]*Handle[T], 0)
	m.handles.Store(&hs)
	return m
}

// Register adds a worker. Handles cannot be unregistered; a handle that
// will no longer be used must not be inside a critical section (its idle
// announcement never blocks epoch advancement).
func (m *Manager[T]) Register() *Handle[T] {
	h := &Handle[T]{m: m}
	h.announce.Store(idle)
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.handles.Load()
	hs := make([]*Handle[T], len(old)+1)
	copy(hs, old)
	hs[len(old)] = h
	m.handles.Store(&hs)
	return h
}

// Epoch returns the current global epoch (for stats and tests).
func (m *Manager[T]) Epoch() uint64 { return m.epoch.Load() }

// Enter begins (or nests within) a critical section: resources observed
// reachable after Enter will not be freed until after the matching
// outermost Exit.
func (h *Handle[T]) Enter() {
	if h.depth == 0 {
		h.announce.Store(h.m.epoch.Load())
	}
	h.depth++
}

// Exit ends the critical section opened by the matching Enter; only the
// outermost Exit closes the section. Every 64th operation, and every one
// while the handle's current generation holds limboAdvance retirees, it
// tries to advance the global epoch; then it frees any limbo generation
// that has expired. An advance waits for every handle inside a critical
// section, so a goroutine preempted inside its section holds back every
// handle's frees until it runs again.
func (h *Handle[T]) Exit() {
	if h.depth--; h.depth > 0 {
		return
	}
	h.announce.Store(idle)
	h.ops++
	if h.ops%64 == 0 || len(h.limbo[h.m.epoch.Load()%limboBuckets]) >= limboAdvance {
		h.m.tryAdvance()
	}
	h.drain()
}

// Retire schedules x to be freed two epochs from now. If x's bucket
// still holds an older generation (its tag is at most e-3, so it has
// expired), that generation is freed first.
func (h *Handle[T]) Retire(x T) {
	e := h.m.epoch.Load()
	b := int(e % limboBuckets)
	if h.tag[b] != e {
		h.free(b)
		h.tag[b] = e
	}
	h.limbo[b] = append(h.limbo[b], x)
}

// drain frees every limbo bucket whose generation has expired: retired
// in an epoch at most e-2, where e is current. The epoch can advance
// several times between two of this handle's Exits (only its own open
// section holds it back), so more than one bucket may have expired.
func (h *Handle[T]) drain() {
	e := h.m.epoch.Load()
	for b := range h.limbo {
		if len(h.limbo[b]) > 0 && h.tag[b]+2 <= e {
			h.free(b)
		}
	}
}

// free hands bucket b's retirees to the free callback and empties it.
func (h *Handle[T]) free(b int) {
	for _, x := range h.limbo[b] {
		h.m.free(x)
	}
	h.limbo[b] = h.limbo[b][:0]
}

// tryAdvance bumps the global epoch if every handle inside a critical
// section has observed the current epoch.
func (m *Manager[T]) tryAdvance() {
	e := m.epoch.Load()
	for _, h := range *m.handles.Load() {
		a := h.announce.Load()
		if a != idle && a != e {
			return // h is still in an older epoch's critical section
		}
	}
	m.epoch.CompareAndSwap(e, e+1)
}

// Flush force-frees every pending retiree of this handle. It is safe only
// at quiescence (no concurrent critical sections), e.g. when tearing down
// a benchmark run or after a simulated crash.
func (h *Handle[T]) Flush() {
	for b := range h.limbo {
		h.free(b)
	}
}
