package main

// -compare: the bounds of BENCHMARK.json applied to two -json reports,
// one row per workload and end-to-end metric. This is the tool a later
// change's "moved" and "must not move" claims are checked with.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict classifies b against base a for one metric. A side whose own
// window-to-window spread exceeds the bound cannot resolve a
// difference of that size, so the row is unresolved either way.
func verdict(lm ledgerMetric, a, b reportMetric) string {
	worse := (b.Value - a.Value) / a.Value // the share of a by which b is worse; negative: better
	if lm.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread != nil && *a.Spread > lm.Bound, b.Spread != nil && *b.Spread > lm.Bound:
		return "unresolved"
	case worse > lm.Bound:
		return "regressed"
	case worse < -lm.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints the comparison of report b against base a and
// returns the exit code: 1 if any row regressed, any workload failed a
// larger share of its operations, or a workload is missing from b.
func compareFiles(led *ledger, pathA, pathB string, w io.Writer) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareReports(led, a, b, w)
}

func compareReports(led *ledger, a, b *report, w io.Writer) int {
	rowsB := map[string]reportRow{}
	for _, row := range b.Rows {
		rowsB[row.Workload] = row
	}
	code := 0
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, ra := range a.Rows {
		rb, ok := rowsB[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from the new report\n", ra.Workload)
			code = 1
			continue
		}
		for _, lm := range led.EndToEnd {
			ma, mb := ra.Metrics[lm.Name], rb.Metrics[lm.Name]
			v := verdict(lm, ma, mb)
			counts[v]++
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %8.4f %8.2f  %s\n",
				ra.Workload, lm.Name, ma.Value, mb.Value, mb.Value/ma.Value, lm.Bound, v)
		}
		sa := float64(ra.Failed) / float64(ra.Attempted)
		sb := float64(rb.Failed) / float64(rb.Attempted)
		v := "unchanged"
		if sb > sa {
			v, code = "regressed", 1
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %8s %8s  %s\n", ra.Workload, "failed_ops_share", sa, sb, "", "any", v)
	}
	fmt.Fprintf(w, "improved %d, unchanged %d, regressed %d, unresolved %d\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"])
	return code
}
