package main

// The run shape: set-up (repeated, for setup_s), warm-up, then a row of
// equal windows that every client attributes its own work to. Each
// end-to-end number is the median over the windows, and the windows'
// quartile spread is reported beside it as the run's own noise.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// shape is how a run is cut up: how many times the system is set up,
// and how long each instance warms up and is measured.
type shape struct {
	instances int
	warm      time.Duration
	window    time.Duration
	windows   int // per instance
}

func (sh shape) nominal() time.Duration {
	return sh.warm + time.Duration(sh.windows)*sh.window
}

// span is one harness span: a sampled call, timed from outside.
type span struct {
	start  int64 // unix nanoseconds
	dur    int64
	op     uint8
	landed bool // the call changed the structure
}

// clientRun is one closed-loop client: it issues the next tape entry
// only when the previous call returned.
type clientRun struct {
	w     worker
	tape  []uint64
	pos   int
	st    opStats
	wins  []winStat
	spans []span
}

type winStat struct {
	ops uint64
	lat hist
}

// loop replays the tape until the last window ends. Every every-th
// call is timed; its end stamp also says which window the calls since
// the previous stamp belong to, so no clock is read in between and no
// coordinator goroutine competes with the clients for a core. marks,
// on one client only, receives a getrusage reading at each boundary.
func (c *clientRun) loop(start time.Time, sh shape, every int, keepSpans bool, marks []usage) {
	cur := -1 // warm-up
	for {
		before := c.st.ok
		for i := 1; i < every; i++ {
			c.pos = (c.pos + c.w.do(c.tape, c.pos, &c.st)) & tapeMask
		}
		op, updates := entryOp(c.tape[c.pos]), c.st.updates
		t0 := time.Now()
		used := c.w.do(c.tape, c.pos, &c.st)
		t1 := time.Now()
		c.pos = (c.pos + used) & tapeMask

		win := -1
		if el := t1.Sub(start) - sh.warm; el >= 0 {
			win = sh.windows
			if sh.windows > 0 && el/sh.window < time.Duration(sh.windows) {
				win = int(el / sh.window)
			}
		}
		for marks != nil && cur < win {
			cur++
			marks[cur] = readUsage()
		}
		if win == sh.windows {
			return
		}
		if win >= 0 {
			c.wins[win].ops += c.st.ok - before
			c.wins[win].lat.record(t1.Sub(t0))
		}
		if keepSpans {
			c.spans = append(c.spans, span{t0.UnixNano(), int64(t1.Sub(t0)), uint8(op), c.st.updates != updates})
		}
	}
}

// stuckError reports a run the watchdog had to end.
type stuckError struct{ unfinished int }

func (e stuckError) Error() string {
	return fmt.Sprintf("watchdog: %d client(s) still inside a call at 3x the run's nominal length", e.unfinished)
}

// drive runs the clients through one warm-up and sh.windows windows and
// returns the usage readings at the window boundaries. A client that
// has not come back by three times the nominal length is given up on:
// goroutine stacks go to stderr and the calls in flight count as failed.
func drive(cs []*clientRun, sh shape, every int, keepSpans bool) ([]usage, error) {
	marks := make([]usage, sh.windows+1)
	for _, c := range cs {
		c.wins = make([]winStat, sh.windows)
	}
	var wg sync.WaitGroup
	var running atomic.Int32
	running.Store(int32(len(cs)))
	start := time.Now()
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *clientRun) {
			defer wg.Done()
			var m []usage
			if i == 0 {
				m = marks
			}
			c.loop(start, sh, every, keepSpans, m)
			running.Add(-1)
		}(i, c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog := time.NewTimer(3 * sh.nominal())
	defer watchdog.Stop()
	select {
	case <-done:
		return marks, nil
	case <-watchdog.C:
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		return nil, stuckError{int(running.Load())}
	}
}

var nan = math.NaN()

// metric is one reported number. Spread is the quartile spread over the
// run's windows or instances, or NaN for a number measured once.
type metric struct {
	Value  float64
	Spread float64
	Unit   string
}

// result is one run of one workload.
type result struct {
	Workload  string
	Seed      uint64
	InputHash uint64
	Correct   bool
	Attempted uint64
	Failed    uint64
	Samples   uint64               // latency samples behind the percentiles
	Windows   map[string][]float64 // each windowed metric, window by window
	Metrics   map[string]metric    // the metrics BENCHMARK.json lists
	// Info holds what an untraced run measures and prints but this box
	// cannot hold a bound on (README.md): latency and CPU per operation.
	Info  map[string]metric
	Notes []string // why the run is not correct
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// abort ends a run that could not finish. Calls still in flight when
// the watchdog fired count as failed, and so does everything before
// them: a row that did not complete is not a measurement.
func (r *result) abort(err error) *result {
	r.fail("%v", err)
	lost := 1
	if se, ok := err.(stuckError); ok && se.unfinished > 1 {
		lost = se.unfinished
	}
	r.Attempted += uint64(lost)
	r.Failed = r.Attempted
	return r
}

// liveHeap returns the bytes of reachable heap objects: what is left
// allocated after a full collection. (HeapInuse would add however the
// freed nodes of set-up happened to fragment their spans, which moves
// by several per cent from one build of the same tree to the next.)
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func newClients(ws []worker, in *inputs) []*clientRun {
	cs := make([]*clientRun, len(ws))
	for i, w := range ws {
		cs[i] = &clientRun{w: w, tape: in.tapes[i]}
	}
	return cs
}

// settle checks a finished run: the system's key sum must equal what
// the clients were acknowledged, and the workload's own end check must
// pass. It fills in the attempted/failed counts.
func (r *result) settle(inst *instance, in *inputs, groups ...[]*clientRun) {
	expect := in.prefillSum
	for _, cs := range groups {
		for _, c := range cs {
			expect += c.st.keySum
			r.Attempted += c.st.ok + c.st.failed
			r.Failed += c.st.failed
		}
	}
	if r.Failed > 0 {
		r.fail("%d of %d operations failed", r.Failed, r.Attempted)
	}
	got, err := inst.keySum()
	if err != nil {
		r.fail("key sum: %v", err)
	} else if got != expect {
		r.fail("key sum %d, acknowledged %d", got, expect)
	}
	if inst.finish != nil {
		if err := inst.finish(expect); err != nil {
			r.fail("end check: %v", err)
		}
	}
	if !r.Correct {
		r.Failed = r.Attempted // a wrong answer anywhere spoils the row
	}
}

// runUntraced measures the end-to-end metrics of one workload with
// tracing off. The system is set up sh.instances times and every
// instance is checked and measured for its share of the windows: where
// a tree's nodes happen to land in memory moves its speed by several
// per cent, and one run should not be one draw of that.
func runUntraced(sp *spec, seed uint64, sh shape, clients int) *result {
	in := generate(sp.name, sp.mix, seed, clients)
	r := &result{Workload: sp.name, Seed: seed, InputHash: in.hash, Correct: true, Metrics: map[string]metric{}}
	var setupS, heap, thr, p50, cpu []float64
	var all hist
	pos := make([]int, clients)
	for i := 0; i < sh.instances; i++ {
		heap0 := liveHeap()
		t0 := time.Now()
		inst, err := sp.setup(in, clients, false)
		if err != nil {
			return r.abort(fmt.Errorf("set-up: %w", err))
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heap = append(heap, float64(liveHeap()-heap0+inst.heapAdjust)/float64(len(in.prefill)))

		cs := newClients(inst.workers[kindUntraced], in)
		for c := range cs {
			cs[c].pos = pos[c]
		}
		marks, err := drive(cs, sh, sp.every, false)
		if err != nil {
			inst.close()
			return r.abort(err)
		}
		r.settle(inst, in, cs)
		inst.close()
		for c := range cs {
			pos[c] = cs[c].pos
		}

		for w := 0; w < sh.windows; w++ {
			var ops uint64
			var lat hist
			for _, c := range cs {
				ops += c.wins[w].ops
				lat.merge(&c.wins[w].lat)
			}
			all.merge(&lat)
			thr = append(thr, float64(ops)/sh.window.Seconds())
			p50 = append(p50, lat.quantile(0.50)/1e3)
			cpu = append(cpu, float64(marks[w+1].cpu-marks[w].cpu)/1e3/float64(ops))
		}
	}
	r.Samples = all.n
	r.Windows = map[string][]float64{"throughput_ops_s": thr, "latency_p50_us": p50, "cpu_us_per_op": cpu}
	summary := func(xs []float64, unit string) metric { return metric{median(xs), spread(xs), unit} }
	r.Metrics["setup_s"] = summary(setupS, "s")
	r.Metrics["throughput_ops_s"] = summary(thr, "ops/s")
	r.Metrics["heap_bytes_per_key"] = summary(heap, "B")
	// Latency quantiles are read off every sample of the run at once:
	// where latency has two modes (the remote rows), the median of
	// per-window medians jumps between them.
	r.Info = map[string]metric{
		"latency_p50_us":   {all.quantile(0.50) / 1e3, spread(p50), "us"},
		"latency_p99_us":   {all.quantile(0.99) / 1e3, nan, "us"},
		"latency_p99.9_us": {all.quantile(0.999) / 1e3, nan, "us"},
		"cpu_us_per_op":    summary(cpu, "us"),
	}
	return r
}
