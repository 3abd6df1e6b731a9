package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRetireFreesEventually(t *testing.T) {
	var freed []int
	m := NewManager[int](func(x int) { freed = append(freed, x) })
	h := m.Register()

	h.Enter()
	h.Retire(1)
	h.Exit()
	// Drive the epoch forward with idle enter/exits.
	for i := 0; i < 1000 && len(freed) == 0; i++ {
		h.Enter()
		h.Exit()
	}
	if len(freed) != 1 || freed[0] != 1 {
		t.Fatalf("freed = %v, want [1]", freed)
	}
}

func TestNotFreedBeforeTwoEpochs(t *testing.T) {
	var freed atomic.Int64
	m := NewManager[int](func(int) { freed.Add(1) })
	h := m.Register()
	blocker := m.Register()

	blocker.Enter() // pins the current epoch
	e0 := m.Epoch()
	h.Enter()
	h.Retire(42)
	h.Exit()
	for i := 0; i < 1000; i++ {
		h.Enter()
		h.Exit()
	}
	// A handle announcing epoch e blocks advancement beyond e+1 (the
	// advance from e to e+1 only requires everyone to have observed e).
	if m.Epoch() > e0+1 {
		t.Fatalf("epoch advanced twice past a pinned handle: %d -> %d", e0, m.Epoch())
	}
	if freed.Load() != 0 {
		t.Fatal("resource freed while a handle could still hold it")
	}
	blocker.Exit()
	for i := 0; i < 1000 && freed.Load() == 0; i++ {
		h.Enter()
		h.Exit()
		blocker.Enter()
		blocker.Exit()
	}
	if freed.Load() != 1 {
		t.Fatal("resource never freed after blocker exited")
	}
}

func TestFlushForcesFrees(t *testing.T) {
	var freed []int
	m := NewManager[int](func(x int) { freed = append(freed, x) })
	h := m.Register()
	h.Enter()
	h.Retire(1)
	h.Retire(2)
	h.Exit()
	h.Flush()
	if len(freed) != 2 {
		t.Fatalf("Flush freed %d items, want 2", len(freed))
	}
}

// TestNoUseAfterFree runs a shared "arena" of slots where writers retire
// and recycle slots while readers access slots they observed during their
// critical sections. Each slot carries a generation counter; a reader that
// observes a slot inside one critical section must see a stable
// generation for the whole section — if reclamation ever recycled a slot
// while a reader was pinned, the generation would change mid-section.
func TestNoUseAfterFree(t *testing.T) {
	const slots = 64
	gen := make([]atomic.Uint64, slots)

	freelist := make(chan uint64, slots)
	m := NewManager[uint64](func(s uint64) {
		gen[s].Add(1) // "reuse" the slot: bump generation
		freelist <- s
	})
	var current atomic.Uint64
	for i := uint64(1); i < slots; i++ {
		freelist <- i
	}

	var writers, readers sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})

	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			h := m.Register()
			for {
				select {
				case <-stop:
					return
				case s := <-freelist:
					h.Enter()
					old := current.Swap(s)
					h.Retire(old)
					h.Exit()
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			h := m.Register()
			for i := 0; i < 50000; i++ {
				h.Enter()
				s := current.Load()
				g1 := gen[s].Load()
				g2 := gen[s].Load() // re-read later in the same section
				if g1 != g2 {
					failures.Add(1)
				}
				h.Exit()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d critical sections observed slot reuse", failures.Load())
	}
}

func TestManyHandlesAdvance(t *testing.T) {
	m := NewManager[int](func(int) {})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Register()
			for i := 0; i < 10000; i++ {
				h.Enter()
				h.Retire(i)
				h.Exit()
			}
			h.Flush()
		}()
	}
	wg.Wait()
	if m.Epoch() == 0 {
		t.Fatal("epoch never advanced under concurrent load")
	}
}

// TestNestedEnterKeepsSectionOpen: Enter/Exit nest, and only the
// outermost pair opens and closes the critical section — an inner
// operation (a point op run from a scan callback) must not release the
// outer section's grace-period guarantee.
func TestNestedEnterKeepsSectionOpen(t *testing.T) {
	freed := make(map[int]bool)
	m := NewManager[int](func(x int) { freed[x] = true })
	h := m.Register()
	other := m.Register()

	h.Enter()
	h.Retire(1)
	// Nested section, as a point op inside a scan produces.
	h.Enter()
	h.Exit()
	// The outer section must still be announced: the epoch cannot
	// advance past it no matter how hard another handle churns.
	for i := 0; i < 1000; i++ {
		other.Enter()
		other.Exit()
	}
	if freed[1] {
		t.Fatal("retiree freed while the outer critical section was still open")
	}
	e := m.Epoch()
	h.Exit() // outermost: closes the section
	for i := 0; i < 1000; i++ {
		other.Enter()
		other.Exit()
		h.Enter()
		h.Exit()
	}
	if m.Epoch() <= e {
		t.Fatal("epoch did not advance after the outer section closed")
	}
	if !freed[1] {
		t.Fatal("retiree never freed after the section closed and the epoch advanced")
	}
}

// TestDrainAfterSkippedEpochs: the epoch may advance several times
// between two Exits of one handle while other handles run. The retiree
// has expired once the epoch is two past its retirement, so the
// retiring handle's next Exit must free it, whichever epoch it sees.
func TestDrainAfterSkippedEpochs(t *testing.T) {
	var freed []int
	m := NewManager[int](func(x int) { freed = append(freed, x) })
	h, other := m.Register(), m.Register()

	h.Enter()
	h.Retire(1)
	h.Exit()
	for i := 0; i < 3; i++ {
		other.Enter()
		other.Exit()
		m.tryAdvance()
	}
	h.Enter()
	h.Exit()
	if len(freed) != 1 || freed[0] != 1 {
		t.Fatalf("epoch %d: freed %v, want [1]", m.Epoch(), freed)
	}
}
