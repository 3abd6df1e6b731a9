package trace

import (
	"sync"
	"testing"
	"unsafe"
)

func TestRecordAndDump(t *testing.T) {
	c := New()
	// Two traces across two stripes; trace 7 has the client+service
	// shape, trace 9 a single span.
	c.Record(0, Span{TraceID: 7, Kind: KindQueueWait, Op: 0x01, Start: 100, Dur: 5})
	c.Record(1, Span{TraceID: 7, Kind: KindService, Op: 0x01, Start: 105, Dur: 50, Aux: 3})
	c.Record(0, Span{TraceID: 9, Kind: KindService, Op: 0x02, Start: 200, Dur: 10})
	c.Record(0, Span{TraceID: 0, Kind: KindService}) // untraced: dropped

	traces := c.Dump(0)
	if len(traces) != 2 {
		t.Fatalf("dumped %d traces, want 2", len(traces))
	}
	var t7 *Trace
	for i := range traces {
		if traces[i].TraceID == 7 {
			t7 = &traces[i]
		}
	}
	if t7 == nil {
		t.Fatal("trace 7 missing from dump")
	}
	if len(t7.Spans) != 2 {
		t.Fatalf("trace 7 has %d spans, want 2", len(t7.Spans))
	}
	// Spans come back in Start order regardless of stripe.
	if t7.Spans[0].Kind != KindQueueWait || t7.Spans[1].Kind != KindService {
		t.Fatalf("trace 7 span order: %v, %v", t7.Spans[0].Kind, t7.Spans[1].Kind)
	}
	if t7.Spans[1].Aux != 3 || t7.Spans[1].Dur != 50 {
		t.Fatalf("span payload lost: %+v", t7.Spans[1])
	}
}

func TestTailSampling(t *testing.T) {
	c := New()
	// SlowPerOp+4 puts on distinct traces; the slowest SlowPerOp must be
	// the ones flagged, slowest first.
	n := SlowPerOp + 4
	for i := 1; i <= n; i++ {
		id := uint64(i)
		dur := uint64(i * 100)
		c.Record(i, Span{TraceID: id, Kind: KindService, Op: 0x02, Start: uint64(i), Dur: dur})
		c.RecordTail(0x02, id, dur)
	}
	traces := c.Dump(0)
	slow := 0
	for _, tr := range traces {
		if tr.Slow {
			slow++
			if tr.TraceID <= uint64(n-SlowPerOp) {
				t.Errorf("trace %d flagged slow; faster than the retained set", tr.TraceID)
			}
		}
	}
	if slow != SlowPerOp {
		t.Fatalf("%d slow traces, want %d", slow, SlowPerOp)
	}
	if traces[0].TraceID != uint64(n) {
		t.Errorf("slowest trace %d first, got %d", n, traces[0].TraceID)
	}
	// Untracked opcode: never retained, never panics.
	c.RecordTail(0x30, 99, 1<<40)
	// Unsampled requests don't rank.
	c.RecordTail(0x02, 0, 1<<40)
}

func TestRingWrap(t *testing.T) {
	c := New()
	// Overfill one stripe; the dump must hold only the ring's capacity
	// and the newest spans survive.
	for i := 0; i < RingSize+10; i++ {
		c.Record(0, Span{TraceID: uint64(i + 1), Kind: KindService, Start: uint64(i)})
	}
	traces := c.Dump(RingSize * 2)
	total := 0
	seenFirst := false
	for _, tr := range traces {
		total += len(tr.Spans)
		if tr.TraceID == 1 {
			seenFirst = true
		}
	}
	if total != RingSize {
		t.Fatalf("dump holds %d spans, want %d", total, RingSize)
	}
	if seenFirst {
		t.Error("oldest span survived a full wrap")
	}
}

func TestDumpMax(t *testing.T) {
	c := New()
	for i := 1; i <= 50; i++ {
		c.Record(i, Span{TraceID: uint64(i), Kind: KindClient, Start: uint64(i)})
	}
	if got := len(c.Dump(10)); got != 10 {
		t.Fatalf("Dump(10) returned %d traces", got)
	}
	// Recency order for unsampled traces: newest first.
	if top := c.Dump(1)[0].TraceID; top != 50 {
		t.Fatalf("most recent trace = %d, want 50", top)
	}
}

func TestConcurrentRecordDump(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(w*1_000_000 + i + 1)
				c.Record(w, Span{TraceID: id, Kind: KindService, Op: 0x01, Start: uint64(i), Dur: uint64(i)})
				c.RecordTail(0x01, id, uint64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		c.Dump(0)
	}
	close(stop)
	wg.Wait()
}

// TestAllocsTraceRecord is the package-local 0-alloc gate: Record and
// RecordTail on warmed stripes allocate nothing. (The end-to-end gates
// — the warmed remote point path with tracing on — live in
// internal/server's TestAllocsTrace*.)
func TestAllocsTraceRecord(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		c.Record(1, Span{TraceID: uint64(i + 1), Kind: KindService, Op: 0x02, Dur: uint64(i)})
		c.RecordTail(0x02, uint64(i+1), uint64(i))
	}
	id := uint64(1000)
	if n := testing.AllocsPerRun(1000, func() {
		id++
		c.Record(1, Span{TraceID: id, Kind: KindService, Op: 0x02, Dur: 5})
		c.RecordTail(0x02, id, 5)
	}); n != 0 {
		t.Fatalf("Record+RecordTail = %.1f allocs/op, want 0", n)
	}
}

func TestNilCollector(t *testing.T) {
	var c *Collector
	c.Record(0, Span{TraceID: 1})
	c.RecordTail(0x01, 1, 1)
	if c.Dump(0) != nil {
		t.Fatal("nil collector dumped traces")
	}
}

// rings counts the collector's materialised span rings.
func rings(c *Collector) int {
	n := 0
	for i := range c.shards {
		if c.shards[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestRingsOnFirstSpan: a collector holds no ring inline, untraced spans
// materialise nothing, and a traced span materialises only its stripe.
func TestRingsOnFirstSpan(t *testing.T) {
	if got := unsafe.Sizeof(Collector{}); got > 2<<10 {
		t.Fatalf("Sizeof(Collector) = %d, want <= 2 KiB (rings allocated on first span)", got)
	}
	c := New()
	for hint := 0; hint < NumShards; hint++ {
		c.Record(hint, Span{TraceID: 0, Kind: KindService, Op: 0x01, Dur: 9})
		c.RecordTail(0x01, 0, 9)
	}
	if n := rings(c); n != 0 {
		t.Fatalf("untraced spans materialised %d rings, want 0", n)
	}
	if got := c.Dump(0); len(got) != 0 {
		t.Fatalf("untraced collector dumped %d traces", len(got))
	}
	c.Record(2, Span{TraceID: 5, Kind: KindService})
	if n := rings(c); n != 1 || c.shards[2].Load() == nil {
		t.Fatalf("one traced span materialised %d rings, want only ring 2", n)
	}
}

// TestFirstSpanRace: recorders racing to put the first span into the
// same unwritten stripe must all land in the one ring that gets
// published. A ring installed by a plain store instead of a
// CompareAndSwap loses the spans recorded into the overwritten ring.
func TestFirstSpanRace(t *testing.T) {
	const writers = 8
	for rep := 0; rep < 1000; rep++ {
		c := New()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				c.Record(3, Span{TraceID: uint64(w + 1), Kind: KindService, Start: uint64(w)})
			}(w)
		}
		close(start)
		wg.Wait()
		spans := 0
		for _, tr := range c.Dump(0) {
			spans += len(tr.Spans)
		}
		if spans != writers {
			t.Fatalf("rep %d: dump holds %d spans, want %d", rep, spans, writers)
		}
	}
}
