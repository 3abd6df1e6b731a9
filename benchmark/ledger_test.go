package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var testShape = shape{instances: 1, warm: 20 * time.Millisecond, window: 100 * time.Millisecond, windows: 2}

func mustLedger(t *testing.T) *ledger {
	t.Helper()
	led, err := readLedger("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return led
}

// checkNames fails unless got holds exactly the ledger's names, with
// the ledger's units.
func checkNames(t *testing.T, got map[string]metric, want []ledgerMetric) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, lm := range want {
		m, ok := got[lm.Name]
		switch {
		case !valid.MatchString(lm.Name):
			t.Errorf("ledger name %q is not a valid metric name", lm.Name)
		case !ok:
			t.Errorf("metric %s is in BENCHMARK.json but was not emitted", lm.Name)
		case m.Unit != lm.Unit:
			t.Errorf("metric %s emitted in %q, ledger says %q", lm.Name, m.Unit, lm.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("emitted %d metrics, ledger lists %d: %v", len(got), len(want), sortedKeys(got))
	}
}

// Every workload runs, checks out and emits exactly the ledger's
// end-to-end metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	led := mustLedger(t)
	if len(led.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(led.Workloads), len(specs))
	}
	for i, sp := range specs {
		sp := sp
		if led.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, led.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			sh := testShape
			if sp.name == "remote-point" {
				sh.instances = 3 // cheap to set up: also covers carrying the tape across instances
			}
			r := runUntraced(&sp, 7, sh, 2)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Notes)
			}
			checkNames(t, r.Metrics, led.EndToEnd)
		})
	}
}

// A traced run emits exactly the ledger's per-layer metrics, on a
// workload with servers and on one without; and the counts a later
// change may rest a claim on repeat exactly from one run to the next.
func TestTracedNamesAndExactCounts(t *testing.T) {
	led := mustLedger(t)
	defer func(d time.Duration) { probeWindow = d }(probeWindow)
	probeWindow = time.Millisecond
	a, b := runProbes(), runProbes()
	for _, name := range []string{"wire.point_rtt_bytes", "pmem.flushes_per_update", "pmem.fences_per_update"} {
		if a[name].Value != b[name].Value || a[name].Value <= 0 {
			t.Errorf("%s read %v, then %v", name, a[name].Value, b[name].Value)
		}
	}
	if got := a["wire.point_rtt_bytes"].Value; got != 43 {
		t.Errorf("a GET and its response are 21 + 22 bytes on the wire, probe counted %v", got)
	}
	for _, name := range []string{"scan-mix", "remote-repl-put"} {
		r := runTraced(findSpec(name), 7, 600*time.Millisecond, 2, t.TempDir(), a)
		if !r.Correct {
			t.Fatalf("%s: %v", name, r.Notes)
		}
		checkNames(t, r.Metrics, led.PerLayer)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sp := findSpec("scan-mix")
	a, b, c := generate(sp.name, sp.mix, 3, 2), generate(sp.name, sp.mix, 3, 2), generate(sp.name, sp.mix, 4, 2)
	if a.hash != b.hash {
		t.Errorf("same seed, input hashes %016x and %016x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 3 and 4 gave the same input hash %016x", a.hash)
	}
}

func TestCompareVerdicts(t *testing.T) {
	led := &ledger{EndToEnd: []ledgerMetric{
		{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.08},
		{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	}}
	spread := func(s float64) *float64 { return &s }
	rep := func(thr, p50, thrSpread float64, failed uint64) *report {
		return &report{Rows: []reportRow{{Workload: "w", Attempted: 100, Failed: failed, Metrics: map[string]reportMetric{
			"throughput_ops_s": {Value: thr, Unit: "ops/s", Spread: spread(thrSpread)},
			"latency_p50_us":   {Value: p50, Unit: "us", Spread: spread(0.01)},
		}}}}
	}
	base := rep(1000, 10, 0.02, 0)
	for _, tc := range []struct {
		name string
		b    *report
		want string // verdicts of throughput, p50
		code int
	}{
		{"same", rep(1000, 10, 0.02, 0), "unchanged unchanged", 0},
		{"inside the bound", rep(950, 10.5, 0.02, 0), "unchanged unchanged", 0},
		{"faster", rep(1200, 8, 0.02, 0), "improved improved", 0},
		{"slower", rep(900, 12, 0.02, 0), "regressed regressed", 1},
		{"too noisy to tell", rep(900, 10, 0.2, 0), "unresolved unchanged", 0},
		{"more failures", rep(1000, 10, 0.02, 1), "unchanged unchanged", 1},
		{"workload gone", &report{}, "", 1},
	} {
		var out bytes.Buffer
		code := compareReports(led, base, tc.b, &out)
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) == 7 && f[0] == "w" {
				got = append(got, f[6])
			}
		}
		if strings.Join(got, " ") != tc.want || code != tc.code {
			t.Errorf("%s: verdicts %q exit %d, want %q exit %d\n%s", tc.name, got, code, tc.want, tc.code, out.String())
		}
	}
}

// stuckWorker never comes back from its first call.
type stuckWorker struct{ release chan struct{} }

func (w stuckWorker) do([]uint64, int, *opStats) int { <-w.release; return 1 }

func TestWatchdogEndsAStuckRun(t *testing.T) {
	w := stuckWorker{make(chan struct{})}
	defer close(w.release)
	cs := []*clientRun{{w: w, tape: make([]uint64, tapeLen)}}
	t0 := time.Now()
	_, err := drive(cs, shape{warm: 10 * time.Millisecond, window: 10 * time.Millisecond, windows: 2}, 1, false)
	if se, ok := err.(stuckError); !ok || se.unfinished != 1 {
		t.Fatalf("drive returned %v, want one unfinished client", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("the watchdog took %v to fire on a 30 ms run", el)
	}
}

// The quartiles are Python's statistics.quantiles(xs, n=4).
func TestSpreadMatchesStatisticsQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64 // (q3 - q1) / median
	}{
		{[]float64{1, 2, 3, 4, 5}, (4.5 - 1.5) / 3},
		{[]float64{10, 12, 11, 13, 9, 14, 8, 15, 7, 16}, (14.25 - 8.75) / 11.5},
		{[]float64{3, 1, 2}, (3.0 - 1.0) / 2},
		{[]float64{5, 7}, (7.5 - 4.5) / 6},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
