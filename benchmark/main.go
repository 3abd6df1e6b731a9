// Command benchmark is this repository's performance ledger: seven
// workloads, each set up, run, checked and measured by one command.
// README.md in this directory defines every workload and metric.
//
//	benchmark -seed N [-json FILE]            every workload, tracing off: end-to-end metrics
//	benchmark -seed N -trace 1 [-out DIR]     every workload, traced: per-layer metrics and latency budgets
//	benchmark -workload W -seed N -seconds S -trace 0|1   one workload; the last line is one JSON object
//	benchmark -compare A.json B.json          apply the bounds of BENCHMARK.json to two -json files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// ledger is BENCHMARK.json: the names, units, directions and bounds
// every report and comparison is checked against.
type ledger struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []ledgerMetric `json:"end_to_end"`
	PerLayer  []ledgerMetric `json:"per_layer"`
}

type ledgerMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// report is what -json writes and -compare reads.
type report struct {
	Seed    uint64      `json:"seed"`
	Go      string      `json:"go"`
	NProc   int         `json:"nproc"`
	Clients int         `json:"clients"`
	Traced  bool        `json:"traced"`
	Rows    []reportRow `json:"rows"`
}

type reportRow struct {
	Workload  string                  `json:"workload"`
	InputHash string                  `json:"input_hash"`
	Correct   bool                    `json:"correct"`
	Attempted uint64                  `json:"attempted"`
	Failed    uint64                  `json:"failed"`
	Metrics   map[string]reportMetric `json:"metrics"`
	Info      map[string]reportMetric `json:"information_only,omitempty"`
}

type reportMetric struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Spread *float64 `json:"spread,omitempty"`
}

func (r *result) row() reportRow {
	convert := func(ms map[string]metric) map[string]reportMetric {
		out := map[string]reportMetric{}
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				continue // JSON has no such numbers; finite() has already failed the row if it matters
			}
			rm := reportMetric{Value: m.Value, Unit: m.Unit}
			if !math.IsNaN(m.Spread) {
				s := m.Spread
				rm.Spread = &s
			}
			out[name] = rm
		}
		return out
	}
	return reportRow{
		Workload: r.Workload, InputHash: fmt.Sprintf("%016x", r.InputHash),
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: convert(r.Metrics), Info: convert(r.Info),
	}
}

// print writes the run as a table, one metric per line.
func (r *result) print(names []ledgerMetric) {
	fmt.Printf("%s  seed=%d  inputs=%016x\n", r.Workload, r.Seed, r.InputHash)
	line := func(name string, m metric, note string) {
		l := fmt.Sprintf("  %-34s %16.6g %-6s", name, m.Value, m.Unit)
		if !math.IsNaN(m.Spread) {
			l += fmt.Sprintf("  %s.spread %.3f", name, m.Spread)
		}
		fmt.Println(l + note)
	}
	for _, lm := range names {
		if m, ok := r.Metrics[lm.Name]; ok {
			line(lm.Name, m, "")
		}
	}
	for _, name := range sortedKeys(r.Info) {
		line(name, r.Info[name], "  (information only)")
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-34s %16.6g %-6s  (%d of %d)\n", "failed_ops_share", share, "ratio", r.Failed, r.Attempted)
	if r.Samples > 0 {
		fmt.Printf("  latency samples %d\n", r.Samples)
	}
	for _, name := range sortedKeys(r.Windows) {
		fmt.Printf("  %s by window %.4g\n", name, r.Windows[name])
	}
	for _, n := range r.Notes {
		fmt.Printf("  INCORRECT: %s\n", n)
	}
}

// finite makes every value printable as JSON; a run that produced a
// number that is not one is not a correct run.
func (r *result) finite(want []ledgerMetric) {
	for _, lm := range want {
		m, ok := r.Metrics[lm.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s was not measured", lm.Name)
			r.Metrics[lm.Name] = metric{0, nan, lm.Unit}
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and end with one JSON line (default: all)")
		seed     = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 12, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics, tracing off")
		jsonOut  = flag.String("json", "", "also write the results to this file (the input of -compare)")
		outDir   = flag.String("out", ".bench_build/traces", "directory a traced run writes trace-<workload>.json to")
		specPath = flag.String("ledger", "BENCHMARK.json", "path of BENCHMARK.json")
		compare  = flag.Bool("compare", false, "compare two -json files: -compare A.json B.json")
	)
	flag.Parse()

	led, err := readLedger(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(led, flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	clients := nproc
	if clients > 4 {
		clients = 4
	}
	fmt.Printf("# %s, nproc=%d, GOMAXPROCS=%d, %d closed-loop clients, one process; remote workloads cross the host's loopback interface\n",
		runtime.Version(), nproc, nproc, clients)

	sh := runShape(*seconds)
	var probes map[string]metric
	if *trace != 0 {
		probes = runProbes()
	}
	run := func(sp *spec) *result {
		if *trace != 0 {
			r := runTraced(sp, *seed, time.Duration(*seconds*float64(time.Second)), clients, *outDir, probes)
			r.finite(led.PerLayer)
			return r
		}
		r := runUntraced(sp, *seed, sh, clients)
		r.finite(led.EndToEnd)
		return r
	}
	names := led.EndToEnd
	if *trace != 0 {
		names = led.PerLayer
	}

	if *workload != "" {
		sp := findSpec(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		r := run(sp)
		r.print(names)
		type val struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool           `json:"correct"`
			Attempted uint64         `json:"attempted"`
			Failed    uint64         `json:"failed"`
			Metrics   map[string]val `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, map[string]val{}}
		for _, lm := range names {
			line.Metrics[lm.Name] = val{r.Metrics[lm.Name].Value, lm.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
		if !r.Correct {
			os.Exit(1)
		}
		return
	}

	rep := report{Seed: *seed, Go: runtime.Version(), NProc: nproc, Clients: clients, Traced: *trace != 0}
	correct := true
	for i := range specs {
		r := run(&specs[i])
		r.print(names)
		rep.Rows = append(rep.Rows, r.row())
		correct = correct && r.Correct
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// runShape cuts the measured seconds of an untraced run into three
// instances of three windows each.
func runShape(seconds float64) shape {
	return shape{instances: 3, warm: 800 * time.Millisecond, windows: 3,
		window: time.Duration(seconds / 9 * float64(time.Second))}
}

// sortedKeys returns m's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
