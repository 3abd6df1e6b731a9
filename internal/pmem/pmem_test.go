package pmem

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestStoreLoadRoundTrip(t *testing.T) {
	a := New(1024)
	if err := quick.Check(func(off uint16, val uint64) bool {
		o := uint64(off) % 1024
		a.Store(o, val)
		return a.Load(o) == val
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnflushedLostOnCrash(t *testing.T) {
	a := New(1024)
	a.Store(5, 42)
	a.Crash(0, 1) // evictProb 0: no dirty line survives
	if got := a.Load(5); got != 0 {
		t.Fatalf("unflushed word survived crash: %d", got)
	}
}

func TestFlushedSurvivesCrash(t *testing.T) {
	a := New(1024)
	a.Store(5, 42)
	a.Flush(5)
	a.Store(6, 43) // same line, after the flush: lost
	a.Crash(0, 1)
	if got := a.Load(5); got != 42 {
		t.Fatalf("flushed word lost on crash: %d", got)
	}
	if got := a.Load(6); got != 0 {
		t.Fatalf("post-flush store survived crash: %d", got)
	}
}

func TestFlushGranularityIsLine(t *testing.T) {
	a := New(1024)
	// Words 0..7 share line 0; flushing word 3 persists them all.
	for i := uint64(0); i < LineWords; i++ {
		a.Store(i, i+100)
	}
	a.Store(LineWords, 999) // line 1, not flushed
	a.Flush(3)
	a.Crash(0, 1)
	for i := uint64(0); i < LineWords; i++ {
		if got := a.Load(i); got != i+100 {
			t.Fatalf("word %d in flushed line = %d", i, got)
		}
	}
	if got := a.Load(LineWords); got != 0 {
		t.Fatalf("word in unflushed line survived: %d", got)
	}
}

func TestEvictionMayPersistDirtyLines(t *testing.T) {
	a := New(8 * 1024)
	for i := uint64(0); i < 1024; i++ {
		a.Store(i*LineWords, i+1) // one dirty word per line, never flushed
	}
	a.Crash(0.5, 7)
	survived := 0
	for i := uint64(0); i < 1024; i++ {
		if a.Load(i*LineWords) != 0 {
			survived++
		}
	}
	if survived < 300 || survived > 700 {
		t.Fatalf("with evictProb 0.5, %d/1024 dirty lines survived", survived)
	}
}

func TestFlushRange(t *testing.T) {
	a := New(1024)
	for i := uint64(0); i < 32; i++ {
		a.Store(64+i, i+1)
	}
	a.FlushRange(64, 32)
	a.Crash(0, 1)
	for i := uint64(0); i < 32; i++ {
		if a.Load(64+i) != i+1 {
			t.Fatalf("word %d lost after FlushRange", 64+i)
		}
	}
	st := a.Stats()
	if st.Flushes != 4 { // 32 words = 4 lines
		t.Fatalf("Flushes = %d, want 4", st.Flushes)
	}
	if st.Fences != 1 {
		t.Fatalf("Fences = %d, want 1", st.Fences)
	}
}

func TestAllocAlignmentAndExhaustion(t *testing.T) {
	a := New(64)
	o1 := a.Alloc(3) // rounds to 8
	o2 := a.Alloc(8)
	if o1%LineWords != 0 || o2%LineWords != 0 {
		t.Fatalf("allocations not line-aligned: %d, %d", o1, o2)
	}
	if o2 != o1+8 {
		t.Fatalf("unexpected layout: %d then %d", o1, o2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	a.Alloc(1024)
}

func TestFailpointPanicsAndStaysTriggered(t *testing.T) {
	a := New(1024)
	a.SetFailpoint(3)
	a.Store(0, 1) // event 1
	a.Store(1, 2) // event 2
	panicked := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	if !panicked(func() { a.Store(2, 3) }) {
		t.Fatal("third event did not trigger failpoint")
	}
	if !panicked(func() { a.Flush(0) }) {
		t.Fatal("post-trigger event did not panic")
	}
	a.Crash(0, 1)
	a.Store(0, 9) // disarmed after crash
	if a.Load(0) != 9 {
		t.Fatal("store after crash failed")
	}
}

func TestCrashCounterAndReset(t *testing.T) {
	a := New(64)
	a.Store(0, 1)
	a.Flush(0)
	a.Fence()
	a.Crash(0, 1)
	st := a.Stats()
	if st.Crashes != 1 || st.Flushes != 1 || st.Fences != 2 {
		t.Fatalf("stats = %+v", st)
	}
	a.ResetStats()
	st = a.Stats()
	if st.Flushes != 0 || st.Fences != 0 || st.Crashes != 1 {
		t.Fatalf("after reset: %+v", st)
	}
}

func TestConcurrentStoresDistinctLines(t *testing.T) {
	a := New(8 * 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 256
			for i := uint64(0); i < 256; i++ {
				a.Store(base+i, base+i)
				a.Flush(base + i)
			}
		}(w)
	}
	wg.Wait()
	a.Crash(0, 1)
	for i := uint64(0); i < 8*256; i++ {
		if a.Load(i) != i {
			t.Fatalf("word %d = %d after concurrent flushes", i, a.Load(i))
		}
	}
}

func TestPersistedLoad(t *testing.T) {
	a := New(64)
	a.Store(0, 7)
	if a.PersistedLoad(0) != 0 {
		t.Fatal("store visible in persisted view before flush")
	}
	a.Flush(0)
	if a.PersistedLoad(0) != 7 {
		t.Fatal("flush did not reach persisted view")
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	for _, c := range []int{0, -8, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New(c)
		}()
	}
}

// TestArenaLayout pins the cache-line layout that keeps every Store's and
// Flush's read of failpoint off the lines steady-state writes touch:
// failpoint shares its line only with fields nothing writes outside
// Crash, the bump cursor has a line of its own, and each count stripe
// fills exactly one line. The line checks hold because the arena and
// its stripes start on a line, which the last two checks pin.
func TestArenaLayout(t *testing.T) {
	var a Arena
	line := func(off uintptr) uintptr { return off / lineBytes }
	fp := line(unsafe.Offsetof(a.failpoint))
	for name, off := range map[string]uintptr{
		"words":     unsafe.Offsetof(a.words),
		"persisted": unsafe.Offsetof(a.persisted),
		"dirty":     unsafe.Offsetof(a.dirty),
		"counts":    unsafe.Offsetof(a.counts),
		"crashes":   unsafe.Offsetof(a.crashes),
		"mu":        unsafe.Offsetof(a.mu),
	} {
		if line(off) > fp {
			t.Errorf("%s at offset %d is past failpoint's line %d", name, off, fp)
		}
	}
	if next := unsafe.Offsetof(a.next); next != (fp+1)*lineBytes || unsafe.Sizeof(a) != next+lineBytes {
		t.Errorf("next at offset %d in a %d-byte arena: want the line after failpoint's, alone", next, unsafe.Sizeof(a))
	}
	if sz := unsafe.Sizeof(countStripe{}); sz != lineBytes {
		t.Errorf("countStripe is %d bytes, want %d", sz, lineBytes)
	}
	arenaSink = New(LineWords) // escapes, like every arena a tree keeps
	if p := uintptr(unsafe.Pointer(arenaSink)); p%lineBytes != 0 {
		t.Errorf("New returned an arena at %#x, not line-aligned", p)
	}
	if p := uintptr(unsafe.Pointer(&arenaSink.counts[0])); p%lineBytes != 0 {
		t.Errorf("count stripes at %#x, not line-aligned", p)
	}
}

var arenaSink *Arena

// TestStripedCountsSum: flushes of lines in different stripes, a range
// flush and a bare fence all reach Stats, and ResetStats clears every
// stripe.
func TestStripedCountsSum(t *testing.T) {
	a := New(LineWords * 4 * countStripes)
	for l := uint64(0); l < 2*countStripes; l++ {
		a.Flush(l * LineWords)
	}
	a.FlushRange(3, 3*LineWords) // four lines, one fence
	a.Fence()
	if st := a.Stats(); st.Flushes != 2*countStripes+4 || st.Fences != 2*countStripes+2 {
		t.Fatalf("stats = %+v, want %d flushes and %d fences", st, 2*countStripes+4, 2*countStripes+2)
	}
	a.ResetStats()
	if st := a.Stats(); st.Flushes != 0 || st.Fences != 0 {
		t.Fatalf("after reset: %+v", st)
	}
}
