package main

// The traced run: probes first, then the workload in short slices that
// alternate between untraced and traced clients, so the two share the
// same minutes of the machine. Layer counters are read from what the
// layers already export; spans around each call are the harness's own.
// Nothing measured here feeds an end-to-end metric.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/dict"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wire"
)

// sliceRounds is how many times a traced run cycles through its kinds
// of client.
const sliceRounds = 4

// layerCounts is what an in-process structure exports about its layers.
type layerCounts struct{ eliminated, versions uint64 }

func readLayerCounts(d dict.Dict) (c layerCounts) {
	if e, ok := d.(dict.ElimStatser); ok {
		i, del, u := e.ElimStats()
		c.eliminated = i + del + u
	}
	if q, ok := d.(dict.RQStatser); ok {
		_, c.versions = q.RQStats()
	}
	return c
}

// ratio is a/b, or 0 when the layer did nothing.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the per-layer metrics of one workload. probes
// holds the probe metrics, which do not depend on the workload and are
// copied into the result as they are.
func runTraced(sp *spec, seed uint64, total time.Duration, clients int, outDir string, probes map[string]metric) *result {
	in := generate(sp.name, sp.mix, seed, clients)
	r := &result{Workload: sp.name, Seed: seed, InputHash: in.hash, Correct: true, Metrics: map[string]metric{}}
	for name, m := range probes {
		r.Metrics[name] = m
	}
	inst, err := sp.setup(in, clients, true)
	if err != nil {
		return r.abort(fmt.Errorf("set-up: %w", err))
	}
	defer inst.close()

	// One group of clients per kind the workload has, each starting at
	// its own quarter of the tape.
	var kinds []int
	var groups [numKinds][]*clientRun
	for kind, ws := range inst.workers {
		if ws == nil {
			continue
		}
		kinds = append(kinds, kind)
		groups[kind] = newClients(ws, in)
		for _, c := range groups[kind] {
			c.pos = kind * tapeLen / 4
		}
	}
	if _, err := drive(groups[kindUntraced], shape{warm: time.Second}, sp.every, false); err != nil {
		return r.abort(err)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	use0 := readUsage()
	var layers0 layerCounts
	if inst.tree != nil {
		layers0 = readLayerCounts(inst.tree)
	}
	var st0 opStats
	for _, kind := range kinds {
		for _, c := range groups[kind] {
			st0.add(&c.st)
		}
	}

	slice := shape{window: total / time.Duration(sliceRounds*len(kinds)), windows: 1}
	var ops [numKinds]uint64
	var lat [numKinds]hist
	var cpu [numKinds]time.Duration
	t0 := time.Now()
	for round := 0; round < sliceRounds; round++ {
		for _, kind := range kinds {
			marks, err := drive(groups[kind], slice, sp.every, kind != kindUntraced)
			if err != nil {
				return r.abort(err)
			}
			cpu[kind] += marks[1].cpu - marks[0].cpu
			for _, c := range groups[kind] {
				ops[kind] += c.wins[0].ops
				lat[kind].merge(&c.wins[0].lat)
			}
		}
	}
	elapsed := time.Since(t0)

	runtime.ReadMemStats(&ms1)
	use1 := readUsage()
	var st opStats
	for _, kind := range kinds {
		for _, c := range groups[kind] {
			st.add(&c.st)
		}
	}
	st.sub(&st0)

	m := r.Metrics
	set := func(name string, v float64, unit string) { m[name] = metric{v, nan, unit} }
	per := float64(sliceRounds) * slice.window.Seconds()
	set("trace.overhead_share", 1-ratio(float64(ops[kindTraced])/per, float64(ops[kindUntraced])/per), "ratio")
	route := 0.0
	if groups[kindDirect] != nil {
		route = (lat[kindTraced].quantile(0.5) - lat[kindDirect].quantile(0.5)) / 1e3
	}
	set("cluster.route_overhead_us", route, "us")
	// What a caller sees, from the untraced slices: reported here, with
	// no bound, because this box cannot hold one on them (README.md).
	set("e2e.latency_p50_us", lat[kindUntraced].quantile(0.50)/1e3, "us")
	set("e2e.latency_p99_us", lat[kindUntraced].quantile(0.99)/1e3, "us")
	set("e2e.cpu_us_per_op", ratio(float64(cpu[kindUntraced])/1e3, float64(ops[kindUntraced])), "us")

	var layers layerCounts
	if inst.tree != nil {
		layers = readLayerCounts(inst.tree)
	}
	set("core.elim_share", ratio(float64(layers.eliminated-layers0.eliminated), float64(st.writes)), "ratio")
	set("rq.versions_per_update", ratio(float64(layers.versions-layers0.versions), float64(st.updates)), "count")
	set("rq.pairs_per_scan", ratio(float64(st.pairs), float64(st.scans)), "count")
	set("runtime.allocs_per_op", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(st.ok)), "count")
	set("runtime.gc_pause_us_per_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e3/elapsed.Seconds(), "us/s")
	set("runtime.ctx_switches_per_op", ratio(float64(use1.ctxs-use0.ctxs), float64(st.ok)), "count")

	serverMetrics(inst, set)
	clientMetrics(inst, set)

	// The budget is read off the last kind: the plain traced client
	// where there is one, whose spans the harness can reach.
	last := kinds[len(kinds)-1]
	selfUs := 0.0
	var joined []joinedTrace
	if inst.traced != nil {
		joined = joinTraces(inst, groups[last])
		selfUs = printBudgets(sp.name, joined, groups[last], inst.follower != nil)
	}
	set("client.self_us", selfUs, "us")
	if err := writeTraceFile(outDir, sp.name, joined, groups[last]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: trace file:", err)
	}

	var all [][]*clientRun
	for _, kind := range kinds {
		all = append(all, groups[kind])
	}
	r.settle(inst, in, all...)
	return r
}

func (st *opStats) add(o *opStats) {
	st.ok += o.ok
	st.failed += o.failed
	st.writes += o.writes
	st.updates += o.updates
	st.scans += o.scans
	st.pairs += o.pairs
}

func (st *opStats) sub(o *opStats) {
	st.ok -= o.ok
	st.failed -= o.failed
	st.writes -= o.writes
	st.updates -= o.updates
	st.scans -= o.scans
	st.pairs -= o.pairs
}

// serverMetrics reads the servers' own histograms and counters. They
// cover everything the servers did since they started: warm-up and
// every slice, traced or not.
func serverMetrics(inst *instance, set func(string, float64, string)) {
	var prim, fol server.MetricsDump
	if inst.primary != nil {
		prim = inst.primary.MetricsDump()
	}
	if inst.follower != nil {
		fol = inst.follower.MetricsDump()
	}
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	set("server.queue_wait_p50_us", us(prim.Histograms["queue_wait_ns"].P50Ns), "us")
	set("server.queue_wait_p99_us", us(prim.Histograms["queue_wait_ns"].P99Ns), "us")
	set("server.service_get_p50_us", us(prim.Histograms["op_get_ns"].P50Ns), "us")
	set("server.service_put_p50_us", us(prim.Histograms["op_put_ns"].P50Ns), "us")
	set("server.service_put_p99_us", us(prim.Histograms["op_put_ns"].P99Ns), "us")
	set("server.coalesce_batch_mean", prim.Histograms["coalesce_batch_size"].MeanNs, "count")
	set("server.commit_wait_p50_us", us(prim.Histograms["repl_commit_wait_ns"].P50Ns), "us")
	set("server.commit_wait_p99_us", us(prim.Histograms["repl_commit_wait_ns"].P99Ns), "us")
	set("server.ship_ack_p50_us", us(prim.Histograms["repl_ship_ack_ns"].P50Ns), "us")
	set("server.apply_p50_us", us(fol.Histograms["op_replicate_ns"].P50Ns), "us")
	var abnormal uint64
	for _, d := range []server.MetricsDump{prim, fol} {
		for _, name := range []string{
			"shed_overload_total", "shed_conn_dead_total", "rate_limited_total", "decode_errors_total",
			"teardown_read_error_total", "teardown_framing_total", "teardown_write_error_total",
			"teardown_write_timeout_total", "teardown_idle_timeout_total", "teardown_max_conns_reject_total",
		} {
			abnormal += d.Counters[name]
		}
	}
	set("server.abnormal_total", float64(abnormal), "count")
}

// clientMetrics reads the traced client's round-trip histograms and
// every reachable client's fault counters.
func clientMetrics(inst *instance, set func(string, float64, string)) {
	var get, put float64
	if inst.traced != nil {
		rtt := inst.traced.RTT()
		if s := rtt["rtt_get_ns"]; s != nil {
			get = float64(s.Quantile(0.5)) / 1e3
		}
		if s := rtt["rtt_put_ns"]; s != nil {
			put = float64(s.Quantile(0.5)) / 1e3
		}
	}
	set("client.rtt_get_p50_us", get, "us")
	set("client.rtt_put_p50_us", put, "us")
	var retries uint64
	for _, c := range inst.clients {
		fs := c.FaultStats()
		retries += fs.Redials + fs.Retries + fs.Ambiguous + fs.Busy
	}
	set("client.retries_total", float64(retries), "count")
}

// --- joining spans by trace id -----------------------------------------

// ival is a half-open time interval in unix nanoseconds.
type ival struct{ start, end int64 }

func (a ival) len() int64 { return a.end - a.start }

// clip returns the part of a inside b (empty when a is unset or they
// do not meet).
func (a ival) clip(b ival) ival {
	if a.start < b.start {
		a.start = b.start
	}
	if a.end > b.end {
		a.end = b.end
	}
	if a.end < a.start {
		return ival{}
	}
	return a
}

// joinedTrace is one request seen from every side: the harness span
// around the call and the spans the client and servers recorded under
// the same trace id. An interval a layer did not record stays empty.
type joinedTrace struct {
	id                                   uint64
	op                                   byte
	harness, client                      ival
	queueWait, service, commitWait, ship ival
	apply                                ival
}

func spanIval(start, dur uint64) ival { return ival{int64(start), int64(start + dur)} }

// joinTraces collects what the traced client and the servers still
// hold, joins it by trace id, and finds each client span's harness span
// by containment: the harness timed the same call from just outside.
func joinTraces(inst *instance, cs []*clientRun) []joinedTrace {
	byID := map[uint64]*joinedTrace{}
	for _, t := range inst.traced.LocalTraces(1 << 20) {
		for _, s := range t.Spans {
			if s.Kind == trace.KindClient {
				byID[t.TraceID] = &joinedTrace{id: t.TraceID, op: s.Op, client: spanIval(s.Start, s.Dur)}
			}
		}
	}
	for _, srv := range []*server.Server{inst.primary, inst.follower} {
		if srv == nil {
			continue
		}
		for _, t := range srv.TracesDump(1 << 20) {
			id, err := strconv.ParseUint(t.TraceID, 16, 64)
			j := byID[id]
			if err != nil || j == nil {
				continue
			}
			for _, s := range t.Spans {
				iv := spanIval(s.StartUnixNs, s.DurNs)
				switch s.Kind {
				case trace.KindName(trace.KindQueueWait):
					j.queueWait = iv
				case trace.KindName(trace.KindService):
					j.service = iv
				case trace.KindName(trace.KindCommitWait):
					j.commitWait = iv
				case trace.KindName(trace.KindReplShip):
					j.ship = iv
				case trace.KindName(trace.KindApply):
					j.apply = iv
				}
			}
		}
	}
	var out []joinedTrace
	for _, j := range byID {
		// Another client's long call can contain this one too: the
		// tightest containing span is the call's own.
		for _, c := range cs {
			i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].start > j.client.start }) - 1
			if i < 0 {
				continue
			}
			h := ival{c.spans[i].start, c.spans[i].start + c.spans[i].dur}
			if h.end >= j.client.end && (j.harness.len() == 0 || h.len() < j.harness.len()) {
				j.harness = h
			}
		}
		if j.harness.len() > 0 && j.queueWait.len() > 0 && j.service.len() > 0 {
			out = append(out, *j)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].harness.start < out[b].harness.start })
	return out
}

// budgetLines names the self times of one request, outermost first.
var budgetLines = [...]string{"harness", "client", "queue-wait", "service", "commit-wait", "ship-ack", "apply"}

// selfTimes splits a request's harness span into the self time of each
// nested layer: harness > client > {queue-wait, service > commit-wait >
// ship-ack > apply}. Each child is clipped to its parent first, so the
// lines of one request add up to its harness span exactly.
func (j *joinedTrace) selfTimes() (self [len(budgetLines)]float64) {
	c := j.client.clip(j.harness)
	q := j.queueWait.clip(c)
	s := j.service.clip(c)
	w := j.commitWait.clip(s)
	p := j.ship.clip(w)
	a := j.apply.clip(p)
	self[0] = float64(j.harness.len() - c.len())
	self[1] = float64(c.len() - q.len() - s.len())
	self[2] = float64(q.len())
	self[3] = float64(s.len() - w.len())
	self[4] = float64(w.len() - p.len())
	self[5] = float64(p.len() - a.len())
	self[6] = float64(a.len())
	return self
}

// budget averages the self times of the middle fifth of traces by
// harness duration (the requests around the median), in microseconds.
// The lines sum to that fifth's mean duration, returned as total.
func budget(traces []joinedTrace) (self [len(budgetLines)]float64, total float64) {
	sort.Slice(traces, func(a, b int) bool { return traces[a].harness.len() < traces[b].harness.len() })
	mid := traces[len(traces)*2/5 : len(traces)-len(traces)*2/5]
	for i := range mid {
		for l, v := range mid[i].selfTimes() {
			self[l] += v / 1e3 / float64(len(mid))
		}
		total += float64(mid[i].harness.len()) / 1e3 / float64(len(mid))
	}
	return self, total
}

// printBudgets prints one latency budget per operation kind with enough
// traces and returns the client's self time over all of them. A
// replicated budget is made of writes that shipped: an insert of a
// present key never reaches the follower.
func printBudgets(workload string, joined []joinedTrace, cs []*clientRun, replicated bool) (clientSelfUs float64) {
	for _, op := range []byte{wire.OpGet, wire.OpPut} {
		var traces []joinedTrace
		for _, j := range joined {
			if j.op == op && (!replicated || j.apply.len() > 0) {
				traces = append(traces, j)
			}
		}
		if len(traces) < 20 {
			continue
		}
		// The servers' span rings hold the run's last fraction of a
		// second. The budget must add up to the harness's own p50 over
		// the calls the client sampled; the p50 over every call of
		// that stretch, sampled or not, is printed beside it, and the
		// gap is what tracing costs the call that carries it.
		from := traces[0].harness.start
		var sampled, every hist
		for _, j := range traces {
			sampled.record(time.Duration(j.harness.len()))
		}
		for _, c := range cs {
			for _, s := range c.spans {
				if s.op == opOf(op) && s.start >= from && (!replicated || s.landed) {
					every.record(time.Duration(s.dur))
				}
			}
		}
		self, total := budget(traces)
		p50, p50Every := sampled.quantile(0.5)/1e3, every.quantile(0.5)/1e3
		fmt.Printf("budget %s %s: harness p50 %.2f us over %d sampled calls; %.2f us over all %d calls of the same stretch (a sampled call takes %+.1f %%)\n",
			workload, wire.OpName(op), p50, sampled.n, p50Every, every.n, 100*(p50/p50Every-1))
		for l, name := range budgetLines {
			fmt.Printf("  %-12s %8.2f us  %5.1f %%\n", name, self[l], 100*self[l]/total)
		}
		verdict := "within 5 %"
		if d := total/p50 - 1; d > 0.05 || d < -0.05 {
			verdict = "NOT within 5 %"
		}
		fmt.Printf("  %-12s %8.2f us  = %.3f of the sampled calls' p50 (%s)\n", "sum", total, total/p50, verdict)
	}
	if len(joined) == 0 {
		return 0
	}
	self, _ := budget(joined)
	return self[1]
}

// opOf maps a wire opcode to the tape's op.
func opOf(wireOp byte) uint8 {
	switch wireOp {
	case wire.OpPut:
		return opInsert
	case wire.OpDelete:
		return opDelete
	}
	return opFind
}

// --- the trace file ----------------------------------------------------

type fileSpan struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
	Parent  string `json:"parent,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
}

// maxFileSpans keeps the trace file to a few megabytes.
const maxFileSpans = 50000

// writeTraceFile writes the spans still in memory when the run ended:
// joined traces with their parent links where the workload has them,
// then the harness spans of the last slice.
func writeTraceFile(dir, workload string, joined []joinedTrace, cs []*clientRun) error {
	var spans []fileSpan
	for _, j := range joined {
		id := fmt.Sprintf("%016x", j.id)
		add := func(name, parent string, iv ival) {
			if iv.len() > 0 {
				spans = append(spans, fileSpan{name, iv.start, iv.end, parent, id})
			}
		}
		add("harness", "", j.harness)
		add("client", "harness", j.client)
		add("queue-wait", "client", j.queueWait)
		add("service", "client", j.service)
		add("commit-wait", "service", j.commitWait)
		add("ship-ack", "commit-wait", j.ship)
		add("apply", "ship-ack", j.apply)
	}
	names := [...]string{opFind: "find", opInsert: "insert", opDelete: "delete", opScan: "scan"}
	for ci, c := range cs {
		for _, s := range c.spans {
			if len(spans) >= maxFileSpans {
				break
			}
			spans = append(spans, fileSpan{Name: fmt.Sprintf("harness:%s:client%d", names[s.op], ci), StartNs: s.start, EndNs: s.start + s.dur})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
