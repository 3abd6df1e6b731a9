// Command abtree-bench regenerates the paper's evaluation (§6): each
// figure's throughput series and Table 1's persistence-overhead matrix,
// printed as tab-separated rows suitable for plotting.
//
// Usage:
//
//	abtree-bench -figure 14                  # SetBench grid, 1M keys
//	abtree-bench -figure 16                  # YCSB Workload A
//	abtree-bench -figure 17                  # persistent-tree comparison
//	abtree-bench -table 1                    # persistence overhead
//	abtree-bench -figure 12 -threads 1,4,8 -duration 2s -updates 100,5
//
// Figure 18 is this repository's extension beyond the paper: YCSB
// Workload E (95% short scans / 5% inserts) over the scan-capable
// structures, using the linearizable RangeSnapshot by default:
//
//	abtree-bench -figure 18                  # Workload E, snapshot scans
//	abtree-bench -figure 18 -scanlen 500     # longer scans
//	abtree-bench -figure 18 -scanmode weak   # per-leaf-atomic Range instead
//
// Point-operation workloads (figures 12-17, table 1) can issue their
// operations as sorted-run batches — the MultiGet/MultiPut serving
// pattern; structures without native batching run a per-key loop:
//
//	abtree-bench -figure 12 -batch 64         # batched point ops
//
// Any run also lands as machine-readable JSON with -json (the
// BENCH_*.json series EXPERIMENTS.md tracks the perf trajectory with):
//
//	abtree-bench -figure 18 -json BENCH_fig18.json
//
// With -remote the whole suite becomes a distributed load generator:
// every cell runs over the internal/wire TCP protocol against an
// abtree-server, which re-hosts the requested structure per cell (the
// OPEN operation), so the same figures measure the network service
// layer instead of the in-process trees:
//
//	abtree-server -addr :7471 &
//	abtree-bench -remote 127.0.0.1:7471 -figure 12 -structures shard8-occ-abtree
//	abtree-bench -remote 127.0.0.1:7471 -figure 12 -batch 64   # MGET/MPUT frames
//	abtree-bench -remote 127.0.0.1:7471 -figure 18             # SNAPSHOT_SCAN streams
//
// -remote-mux is -remote through the coalescing mux (client.Mux): all
// worker goroutines share one connection and their per-key operations
// are dynamically merged into batch frames on the wire — per-key
// workload code, batch-level throughput (see README "Coalescing"):
//
//	abtree-bench -remote-mux 127.0.0.1:7471 -figure 12 -threads 64
//
// The defaults are laptop-scale (short durations, thread counts up to
// GOMAXPROCS); the paper's absolute numbers came from a 144-thread Xeon,
// so shapes — who wins, by what factor, where lines cross — are the
// meaningful output (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/report"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// newDict builds the dictionary one experiment cell runs against:
// bench.NewDict in-process by default; in -remote mode it dials the
// server, re-opens the requested structure there (a fresh instance per
// cell, like a local run gets), and returns the wire client — which
// implements dict.Dict, so the rest of the harness cannot tell the
// difference. The previous cell's client (and its per-handle
// connections) is closed first.
var newDict = bench.NewDict

var remoteClient *client.Client

func remoteFactory(addr string, traceEvery int, noOpen bool) func(name string, keyRange uint64) dict.Dict {
	return func(name string, keyRange uint64) dict.Dict {
		closeRemote()
		c, err := client.DialConfig(addr, client.Config{TraceEvery: traceEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "remote %s: %v\n", addr, err)
			os.Exit(1)
		}
		if err := adoptOrOpen(c, name, keyRange, noOpen); err != nil {
			fmt.Fprintf(os.Stderr, "remote %s: %v\n", addr, err)
			os.Exit(1)
		}
		remoteClient = c
		return c
	}
}

// adoptOrOpen prepares the server for a cell: normally a fresh OPEN,
// or — with -no-open, for servers that refuse OPEN (replicated
// primaries tie their op log to the hosted generation) — a STATS check
// that the server already hosts the structure the cell wants. The
// harness baselines pre-existing keys, so adopted state is fine.
func adoptOrOpen(c interface {
	Open(name string, keyRange uint64) error
	Stats() (wire.Stats, error)
}, name string, keyRange uint64, noOpen bool) error {
	if !noOpen {
		return c.Open(name, keyRange)
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	if st.Name != name {
		return fmt.Errorf("-no-open: server hosts %q, cell wants %q", st.Name, name)
	}
	if st.KeyRange < keyRange {
		return fmt.Errorf("-no-open: server key range %d < cell's %d", st.KeyRange, keyRange)
	}
	return nil
}

var remoteMux *client.Mux

// muxFactory is remoteFactory's coalescing sibling (-remote-mux): every
// cell runs through a client.Mux, so all worker handles share one
// connection and their per-key ops coalesce into batch frames.
func muxFactory(addr string, traceEvery int, noOpen bool) func(name string, keyRange uint64) dict.Dict {
	return func(name string, keyRange uint64) dict.Dict {
		closeRemote()
		m, err := client.DialMux(addr, client.Config{TraceEvery: traceEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "remote-mux %s: %v\n", addr, err)
			os.Exit(1)
		}
		if err := adoptOrOpen(m, name, keyRange, noOpen); err != nil {
			fmt.Fprintf(os.Stderr, "remote-mux %s: %v\n", addr, err)
			os.Exit(1)
		}
		remoteMux = m
		return m
	}
}

func closeRemote() {
	if remoteClient != nil {
		remoteClient.Close()
		remoteClient = nil
	}
	if remoteMux != nil {
		if s := remoteMux.CoalesceStats(); s.Count > 0 {
			fmt.Printf("# mux-coalesce: %d frames, %.1f waiters/frame mean, p99 %d, max %d\n",
				s.Count, s.Mean(), s.Quantile(0.99), s.Max())
		}
		remoteMux.Close()
		remoteMux = nil
	}
}

// resultSink accumulates every measured cell for -json output (written
// to path; empty = no JSON); the TSV on stdout is unchanged. A nil
// sink records nothing.
type resultSink struct {
	path string
	rows []report.Row
}

func (s *resultSink) add(r report.Row) {
	if s != nil {
		s.rows = append(s.rows, r)
	}
}

// fatal reports a run error and exits — after flushing, so cells
// already measured before the failure still land in the -json output.
func (s *resultSink) fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	s.flush()
	os.Exit(1)
}

// flush writes the accumulated rows as an indented JSON array (the
// BENCH_*.json format internal/report round-trips).
func (s *resultSink) flush() {
	if s == nil || s.path == "" {
		return
	}
	f, err := os.Create(s.path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing -json output: %v\n", err)
		os.Exit(1)
	}
	if err := report.WriteJSON(f, s.rows); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing -json output: %v\n", err)
		os.Exit(1)
	}
}

func main() {
	var (
		figure     = flag.Int("figure", 0, "figure to regenerate: 12-17, or 18 (Workload E extension)")
		table      = flag.Int("table", 0, "table to regenerate: 1")
		threadsCSV = flag.String("threads", "", "comma-separated thread counts (default 1,2,...,GOMAXPROCS)")
		updatesCSV = flag.String("updates", "100,50,20,5", "comma-separated update percentages (figures 12-15)")
		duration   = flag.Duration("duration", time.Second, "measured duration per cell")
		structures = flag.String("structures", "", "comma-separated structure subset (default: figure's full set)")
		keys       = flag.Uint64("keys", 0, "override the figure's key-range")
		seed       = flag.Uint64("seed", 1, "workload seed")
		scanLen    = flag.Uint64("scanlen", 100, "figure 18: maximum scan length")
		scanMode   = flag.String("scanmode", "snapshot", "figure 18: \"snapshot\" (linearizable RangeSnapshot) or \"weak\" (Range)")
		batch      = flag.Int("batch", 1, "issue point operations as sorted-run batches of this size (figures 12-17, table 1; 1 = per-key)")
		latEvery   = flag.Int("latevery", 8, "sample whole-call latency every Nth op per worker, reported as p50/p99/p999 columns (0 = off)")
		jsonPath   = flag.String("json", "", "also write results as a JSON array to this path (e.g. BENCH_fig18.json)")
		remote     = flag.String("remote", "", "run every cell against an abtree-server at this address instead of in-process")
		remoteMuxA = flag.String("remote-mux", "", "like -remote, but through a coalescing shared-connection mux (client.Mux): all workers share one connection and per-key ops merge into batch frames")
		traceEvery = flag.Int("trace-every", 0, "with -remote/-remote-mux: head-sample 1 in N operations per worker for end-to-end tracing (0 = off)")
		noOpen     = flag.Bool("no-open", false, "with -remote/-remote-mux: drive the structure the server already hosts instead of re-OPENing per cell (required for replicated primaries, which reject OPEN)")
	)
	flag.Parse()
	if *remote != "" && *remoteMuxA != "" {
		fmt.Fprintln(os.Stderr, "-remote and -remote-mux are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}
	if *traceEvery < 0 {
		fmt.Fprintf(os.Stderr, "bad -trace-every %d (want 0 to disable, or a positive sampling stride)\n", *traceEvery)
		flag.Usage()
		os.Exit(2)
	}
	if *traceEvery > 0 && *remote == "" && *remoteMuxA == "" {
		fmt.Fprintln(os.Stderr, "-trace-every only applies to the remote drivers (-remote/-remote-mux)")
		flag.Usage()
		os.Exit(2)
	}
	if *noOpen && *remote == "" && *remoteMuxA == "" {
		fmt.Fprintln(os.Stderr, "-no-open only applies to the remote drivers (-remote/-remote-mux)")
		flag.Usage()
		os.Exit(2)
	}
	cellMode := "each cell re-opened on the server"
	if *noOpen {
		cellMode = "driving the server's hosted structure, no re-open"
	}
	if *remote != "" {
		newDict = remoteFactory(*remote, *traceEvery, *noOpen)
		defer closeRemote()
		fmt.Printf("# remote: %s (%s)\n", *remote, cellMode)
	}
	if *remoteMuxA != "" {
		newDict = muxFactory(*remoteMuxA, *traceEvery, *noOpen)
		defer closeRemote()
		fmt.Printf("# remote-mux: %s, one shared conn (%s)\n", *remoteMuxA, cellMode)
	}

	// Validate the scan flags up front, for every figure: an unknown
	// -scanmode (or a zero -scanlen) is a usage error, never a silent
	// fallback to a default, and the scan flags only mean something for
	// the scan workload (-figure 18).
	snapshot := false
	switch *scanMode {
	case "snapshot":
		snapshot = true
	case "weak":
	default:
		fmt.Fprintf(os.Stderr, "bad -scanmode %q (want \"snapshot\" or \"weak\")\n", *scanMode)
		flag.Usage()
		os.Exit(2)
	}
	if *scanLen == 0 {
		fmt.Fprintln(os.Stderr, "bad -scanlen 0 (scans must cover at least 1 key)")
		flag.Usage()
		os.Exit(2)
	}
	scanFlagsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scanmode" || f.Name == "scanlen" {
			scanFlagsSet = true
		}
	})
	if scanFlagsSet && *figure != 18 {
		fmt.Fprintf(os.Stderr, "-scanmode/-scanlen only apply to the scan workload (-figure 18), not -figure %d/-table %d\n", *figure, *table)
		flag.Usage()
		os.Exit(2)
	}
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "bad -batch %d (batches must hold at least 1 key)\n", *batch)
		flag.Usage()
		os.Exit(2)
	}
	if *latEvery < 0 {
		fmt.Fprintf(os.Stderr, "bad -latevery %d (want 0 to disable, or a positive sampling stride)\n", *latEvery)
		flag.Usage()
		os.Exit(2)
	}
	if *batch > 1 && *figure == 18 {
		fmt.Fprintln(os.Stderr, "-batch applies to the point-op workloads (figures 12-17, table 1), not the scan workload (-figure 18)")
		flag.Usage()
		os.Exit(2)
	}

	sink := &resultSink{path: *jsonPath}
	// Deferred so cells measured before a mid-run panic (e.g. an unknown
	// structure name partway through -structures) still land in the
	// JSON output; the os.Exit error paths flush through sink.fatal.
	defer sink.flush()
	threads := parseInts(*threadsCSV)
	if len(threads) == 0 {
		for t := 1; t <= runtime.GOMAXPROCS(0); t *= 2 {
			threads = append(threads, t)
		}
	}
	updates := parseInts(*updatesCSV)

	switch {
	case *figure >= 12 && *figure <= 15:
		keyRange := map[int]uint64{12: 10_000, 13: 100_000, 14: 1_000_000, 15: 10_000_000}[*figure]
		if *keys != 0 {
			keyRange = *keys
		}
		structs := bench.VolatileStructures
		if *structures != "" {
			structs = strings.Split(*structures, ",")
		}
		runMicrobench(*figure, keyRange, structs, threads, updates, *duration, *seed, *batch, *latEvery, sink)
	case *figure == 16:
		records := uint64(1_000_000) // paper: 100M; scale with -keys
		if *keys != 0 {
			records = *keys
		}
		structs := bench.VolatileStructures
		if *structures != "" {
			structs = strings.Split(*structures, ",")
		}
		runYCSB(records, structs, threads, *duration, *seed, *batch, *latEvery, sink)
	case *figure == 17:
		keyRange := uint64(1_000_000)
		if *keys != 0 {
			keyRange = *keys
		}
		structs := bench.PersistentStructures
		if *structures != "" {
			structs = strings.Split(*structures, ",")
		}
		runFig17(keyRange, structs, threads, *duration, *seed, *batch, *latEvery, sink)
	case *figure == 18:
		records := uint64(1_000_000)
		if *keys != 0 {
			records = *keys
		}
		// Snapshot mode defaults to the linearizable-scan structures;
		// weak mode also includes the competitors (and their sharded
		// compositions) that only have a non-linearizable Range.
		structs := bench.ScanStructures
		if !snapshot {
			structs = bench.RangeStructures
		}
		if *structures != "" {
			structs = strings.Split(*structures, ",")
		}
		runYCSBE(records, structs, threads, *duration, *seed, *scanLen, snapshot, *latEvery, sink)
	case *table == 1:
		keyRange := uint64(1_000_000)
		if *keys != 0 {
			keyRange = *keys
		}
		runTable1(keyRange, threads, *duration, *seed, *batch, *latEvery, sink)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// scanModeName is the -scanmode vocabulary, recorded in JSON rows.
func scanModeName(snapshot bool) string {
	if snapshot {
		return "snapshot"
	}
	return "weak"
}

// jsonBatch normalizes the -batch value for JSON rows: per-key runs
// record 0 (omitted), so old and new series stay comparable.
func jsonBatch(batch int) int {
	if batch <= 1 {
		return 0
	}
	return batch
}

func parseInts(csv string) []int {
	if csv == "" {
		return nil
	}
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad integer list %q\n", csv)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// runMicrobench regenerates one of Figures 12-15: the SetBench grid of
// {update%} x {uniform, Zipf 1} x thread counts for each structure.
func runMicrobench(fig int, keyRange uint64, structs []string, threads, updates []int, d time.Duration, seed uint64, batch, latEvery int, sink *resultSink) {
	fmt.Printf("# Figure %d: SetBench microbenchmark, %d keys (ops/us)\n", fig, keyRange)
	fmt.Println("# (for Elim trees, an 'elim-rate' comment follows each row: the")
	fmt.Println("#  fraction of completed ops that eliminated instead of writing)")
	fmt.Println("figure\tupdates%\tzipf\tstructure\tthreads\tbatch\tops_per_us\tp50_us\tp99_us\tp999_us")
	for _, upd := range updates {
		for _, zipf := range []float64{0, 1} {
			for _, name := range structs {
				for _, th := range threads {
					dd := newDict(name, keyRange)
					cfg := bench.Config{
						Threads: th, KeyRange: keyRange, UpdatePct: upd,
						ZipfS: zipf, Batch: batch, Duration: d, Seed: seed,
						LatEvery: latEvery,
					}
					bench.Prefill(dd, cfg)
					res, err := bench.Run(dd, cfg)
					if err != nil {
						sink.fatal("%s: %v", name, err)
					}
					p50, p99, p999 := res.LatPcts()
					fmt.Printf("%d\t%d\t%.0f\t%s\t%d\t%d\t%.3f\t%.2f\t%.2f\t%.2f\n",
						fig, upd, zipf, name, th, max(batch, 1), res.OpsPerUsec, p50, p99, p999)
					sink.add(report.Row{Figure: fig, UpdatePct: upd, Zipf: zipf,
						Structure: name, Threads: th, Batch: jsonBatch(batch),
						OpsPerUs: res.OpsPerUsec, Keys: keyRange,
						P50us: p50, P99us: p99, P999us: p999})
					if es, ok := dd.(dict.ElimStatser); ok {
						ei, ed, eu := es.ElimStats()
						if total := ei + ed + eu; total > 0 {
							fmt.Printf("# elim-rate %s t%d: %.4f%% (%d/%d)\n",
								name, th, 100*float64(total)/float64(res.Ops), total, res.Ops)
						}
					}
				}
			}
		}
	}
}

// runYCSB regenerates Figure 16: Workload A transactions/us.
func runYCSB(records uint64, structs []string, threads []int, d time.Duration, seed uint64, batch, latEvery int, sink *resultSink) {
	fmt.Printf("# Figure 16: YCSB Workload A, %d records, Zipf 0.5 (tx/us)\n", records)
	fmt.Println("figure\tstructure\tthreads\tbatch\ttx_per_us\tp50_us\tp99_us\tp999_us")
	for _, name := range structs {
		for _, th := range threads {
			dd := newDict(name, records*2)
			res, err := ycsb.Run(dd, ycsb.Config{
				Threads: th, Records: records, ZipfS: 0.5, Batch: batch, Duration: d, Seed: seed,
				LatEvery: latEvery,
			})
			if err != nil {
				sink.fatal("%s: %v", name, err)
			}
			p50, p99, p999 := bench.LatUs(res.Lat)
			fmt.Printf("16\t%s\t%d\t%d\t%.3f\t%.2f\t%.2f\t%.2f\n",
				name, th, max(batch, 1), res.TxPerUsec, p50, p99, p999)
			sink.add(report.Row{Figure: 16, UpdatePct: -1, Zipf: 0.5,
				Structure: name, Threads: th, Batch: jsonBatch(batch),
				OpsPerUs: res.TxPerUsec, Keys: records,
				P50us: p50, P99us: p99, P999us: p999})
		}
	}
}

// runYCSBE runs the Workload E extension ("figure 18"): 95% short scans
// / 5% inserts over the scan-capable structures.
func runYCSBE(records uint64, structs []string, threads []int, d time.Duration, seed, scanLen uint64, snapshot bool, latEvery int, sink *resultSink) {
	mode := "weak (per-leaf-atomic Range)"
	if snapshot {
		mode = "snapshot (linearizable RangeSnapshot)"
	}
	fmt.Printf("# Figure 18 (extension): YCSB Workload E, %d records, Zipf 0.5, scans %s (tx/us)\n", records, mode)
	fmt.Println("figure\tstructure\tthreads\tscanlen\ttx_per_us\tp50_us\tp99_us\tp999_us")
	for _, name := range structs {
		for _, th := range threads {
			dd := newDict(name, records*2)
			res, err := ycsb.RunE(dd, ycsb.EConfig{
				Threads: th, Records: records, ZipfS: 0.5, ScanLen: scanLen,
				Snapshot: snapshot, Duration: d, Seed: seed, LatEvery: latEvery,
			})
			if err != nil {
				sink.fatal("%s: %v", name, err)
			}
			p50, p99, p999 := bench.LatUs(res.Lat)
			fmt.Printf("18\t%s\t%d\t%d\t%.3f\t%.2f\t%.2f\t%.2f\n",
				name, th, scanLen, res.TxPerUsec, p50, p99, p999)
			sink.add(report.Row{Figure: 18, UpdatePct: -1, Zipf: 0.5,
				Structure: name, Threads: th, ScanLen: int(scanLen), OpsPerUs: res.TxPerUsec,
				ScanMode: scanModeName(snapshot), Keys: records,
				P50us: p50, P99us: p99, P999us: p999})
			fmt.Printf("# scan-detail %s t%d: %d scans, %.1f pairs/scan, %d inserts\n",
				name, th, res.Scans, float64(res.Pairs)/float64(max(res.Scans, 1)), res.Inserts)
		}
	}
}

// runFig17 regenerates Figure 17: persistent trees, 1M keys, 50% updates,
// uniform and Zipf 1.
func runFig17(keyRange uint64, structs []string, threads []int, d time.Duration, seed uint64, batch, latEvery int, sink *resultSink) {
	fmt.Printf("# Figure 17: persistent trees, %d keys, 50%% updates (ops/us)\n", keyRange)
	fmt.Println("figure\tzipf\tstructure\tthreads\tbatch\tops_per_us\tp50_us\tp99_us\tp999_us")
	for _, zipf := range []float64{0, 1} {
		for _, name := range structs {
			for _, th := range threads {
				dd := newDict(name, keyRange)
				cfg := bench.Config{
					Threads: th, KeyRange: keyRange, UpdatePct: 50,
					ZipfS: zipf, Batch: batch, Duration: d, Seed: seed,
					LatEvery: latEvery,
				}
				bench.Prefill(dd, cfg)
				res, err := bench.Run(dd, cfg)
				if err != nil {
					sink.fatal("%s: %v", name, err)
				}
				p50, p99, p999 := res.LatPcts()
				fmt.Printf("17\t%.0f\t%s\t%d\t%d\t%.3f\t%.2f\t%.2f\t%.2f\n",
					zipf, name, th, max(batch, 1), res.OpsPerUsec, p50, p99, p999)
				sink.add(report.Row{Figure: 17, UpdatePct: -1, Zipf: zipf,
					Structure: name, Threads: th, Batch: jsonBatch(batch),
					OpsPerUs: res.OpsPerUsec, Keys: keyRange,
					P50us: p50, P99us: p99, P999us: p999})
			}
		}
	}
}

// runTable1 regenerates Table 1: throughput change from enabling
// persistence, at update rates {100, 50, 10}, uniform and Zipf 1.
func runTable1(keyRange uint64, threads []int, d time.Duration, seed uint64, batch, latEvery int, sink *resultSink) {
	th := threads[len(threads)-1] // the paper uses the max thread count (96)
	fmt.Printf("# Table 1: persistence overhead, %d keys, %d threads\n", keyRange, th)
	fmt.Println("zipf\tupdates%\tbatch\ttree\tvolatile_ops_us\tpersistent_ops_us\tchange%")
	for _, zipf := range []float64{0, 1} {
		for _, upd := range []int{100, 50, 10} {
			for _, pair := range [][2]string{
				{"OCC-ABtree", "p-OCC-ABtree"},
				{"Elim-ABtree", "p-Elim-ABtree"},
			} {
				cfg := bench.Config{
					Threads: th, KeyRange: keyRange, UpdatePct: upd,
					ZipfS: zipf, Batch: batch, Duration: d, Seed: seed,
					LatEvery: latEvery,
				}
				vol := measure(pair[0], cfg, sink)
				per := measure(pair[1], cfg, sink)
				fmt.Printf("%.0f\t%d\t%d\t%s\t%.3f\t%.3f\t%+.1f%%\n",
					zipf, upd, max(batch, 1), pair[1], vol.OpsPerUsec, per.OpsPerUsec,
					100*(per.OpsPerUsec-vol.OpsPerUsec)/vol.OpsPerUsec)
				for i, res := range []bench.Result{vol, per} {
					p50, p99, p999 := res.LatPcts()
					sink.add(report.Row{Table: 1, UpdatePct: upd, Zipf: zipf,
						Structure: pair[i], Threads: th, Batch: jsonBatch(batch),
						OpsPerUs: res.OpsPerUsec, Keys: keyRange,
						P50us: p50, P99us: p99, P999us: p999})
				}
			}
		}
	}
}

func measure(name string, cfg bench.Config, sink *resultSink) bench.Result {
	dd := newDict(name, cfg.KeyRange)
	bench.Prefill(dd, cfg)
	res, err := bench.Run(dd, cfg)
	if err != nil {
		sink.fatal("%s: %v", name, err)
	}
	return res
}
