// Command abtree-top is a live terminal view over a set of abtree
// servers — the observability counterpart of `top`. It polls every
// member's STATS, METRICS and trace dump over the wire protocol and
// renders one screen per refresh:
//
//   - per-member role, hosted structure, replication position, and the
//     follower's lag behind its partition primary (computed here, from
//     the members' positions — no single server knows it);
//   - point-op latency quantiles, queue-wait, connection and in-flight
//     gauges, plus shed and connection-teardown rates derived from
//     counter deltas between refreshes;
//   - the primary's replication histograms (ship→ack, commit wait);
//   - the slowest traces across the whole member set, one line per
//     span, so a tail-latency spike names the stage that caused it.
//
// Usage:
//
//	abtree-top -members 127.0.0.1:7471,127.0.0.1:7472,127.0.0.1:7473
//	abtree-top -members 127.0.0.1:7471 -interval 500ms -traces 8
//	abtree-top -members 127.0.0.1:7471 -once        # one snapshot, no screen control
//
// Members that are down render as DOWN rows and are redialed every
// refresh, so the view rides through restarts and failovers.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	var (
		membersCSV = flag.String("members", "", "comma-separated abtree-server addresses to watch (required)")
		interval   = flag.Duration("interval", time.Second, "refresh interval")
		traceMax   = flag.Int("traces", 5, "slowest traces rendered across all members (0 = none)")
		once       = flag.Bool("once", false, "print a single snapshot without clearing the screen and exit")
		count      = flag.Int("count", 0, "exit after this many refreshes (0 = run until interrupted)")
	)
	flag.Parse()
	if *membersCSV == "" {
		fmt.Fprintln(os.Stderr, "abtree-top: -members is required")
		flag.Usage()
		os.Exit(2)
	}
	if *traceMax < 0 {
		*traceMax = 0
	}

	var members []*member
	for _, addr := range strings.Split(*membersCSV, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			members = append(members, &member{addr: addr})
		}
	}
	defer func() {
		for _, m := range members {
			m.drop()
		}
	}()

	for tick := 1; ; tick++ {
		for _, m := range members {
			m.poll(*traceMax)
		}
		screen := render(members, *traceMax, time.Now())
		if *once {
			fmt.Print(screen)
			return
		}
		// Home + clear-to-end redraw: no flicker, no scrollback spam.
		fmt.Print("\x1b[H\x1b[2J" + screen)
		if *count > 0 && tick >= *count {
			return
		}
		time.Sleep(*interval)
	}
}

// member is one watched server: its client (redialed on failure) and
// the latest poll's results, plus the previous counters for rates.
type member struct {
	addr string
	c    *client.Client

	err    error
	st     wire.Stats
	sm     *client.ServerMetrics
	traces []client.ServerTrace

	prev   map[string]uint64
	prevAt time.Time
}

func (m *member) drop() {
	if m.c != nil {
		m.c.Close()
		m.c = nil
	}
}

// poll refreshes one member: STATS, METRICS and the trace dump. Any
// failure marks the member DOWN and drops the connection so the next
// refresh redials (a promoted or restarted member comes back on its
// own).
func (m *member) poll(traceMax int) {
	m.err = nil
	if m.c == nil {
		c, err := client.DialConfig(m.addr, client.Config{DialTimeout: 2 * time.Second, RetryAttempts: 1})
		if err != nil {
			m.err = err
			return
		}
		m.c = c
	}
	st, err := m.c.Stats()
	if err == nil {
		m.st = st
		m.sm, err = m.c.ServerMetrics()
	}
	if err == nil && traceMax > 0 && st.CanTrace {
		m.traces, err = m.c.ServerTraces(0)
	}
	if err != nil {
		m.err = err
		m.drop()
	}
}

// rate computes a counter's per-second delta since the previous
// refresh; the first refresh has no baseline and reports -1.
func (m *member) rate(cur map[string]uint64, name string, dt float64) float64 {
	if m.prev == nil || dt <= 0 {
		return -1
	}
	prev, ok := m.prev[name]
	if !ok {
		return -1
	}
	return float64(cur[name]-prev) / dt
}

// slowTrace is one rendered trace: where it was collected and how long
// its span set stretches end to end.
type slowTrace struct {
	member string
	tr     client.ServerTrace
	span   uint64 // max span end - min span start
}

func traceSpanNs(tr client.ServerTrace) uint64 {
	var lo, hi uint64
	for i, sp := range tr.Spans {
		if i == 0 || sp.Start < lo {
			lo = sp.Start
		}
		if end := sp.Start + sp.Dur; end > hi {
			hi = end
		}
	}
	return hi - lo
}

// render draws one full screen from the members' latest poll results
// and rolls the counter baselines forward. Pure string building — the
// caller decides whether to clear the terminal first.
func render(members []*member, traceMax int, now time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "abtree-top  %s  %d member(s)\n\n", now.Format("15:04:05"), len(members))

	// The best primary position per partition, for follower lag.
	primSeq := map[uint64]uint64{}
	for _, m := range members {
		if m.err == nil && m.st.Role == wire.RolePrimary && m.st.ReplSeq > primSeq[m.st.Partition] {
			primSeq[m.st.Partition] = m.st.ReplSeq
		}
	}

	fmt.Fprintf(&b, "%-22s %-10s %-14s %9s %6s %6s %5s %-17s %-17s %8s %8s\n",
		"MEMBER", "ROLE", "STRUCT", "SEQ", "LAG", "CONNS", "INFL",
		"GET p50/p99", "PUT p50/p99", "SHED/s", "TDOWN/s")
	for _, m := range members {
		if m.err != nil {
			fmt.Fprintf(&b, "%-22s DOWN: %v\n", m.addr, m.err)
			continue
		}
		lag := "-"
		if m.st.Role == wire.RoleFollower {
			if p, ok := primSeq[m.st.Partition]; ok && p >= m.st.ReplSeq {
				lag = fmt.Sprintf("%d", p-m.st.ReplSeq)
			} else {
				lag = "?" // no live primary for this partition in -members
			}
		}
		dt := now.Sub(m.prevAt).Seconds()
		var teardowns uint64
		for name, v := range m.sm.Counters {
			if strings.HasPrefix(name, "teardown_") {
				teardowns += v
			}
		}
		cur := map[string]uint64{
			"shed":      m.sm.Counters["rate_limited_total"],
			"teardowns": teardowns,
		}
		fmt.Fprintf(&b, "%-22s %-10s %-14s %9d %6s %6d %5d %-17s %-17s %8s %8s\n",
			m.addr, wire.RoleName(m.st.Role), m.st.Name, m.st.ReplSeq, lag,
			m.sm.Gauges["open_conns"], m.sm.Gauges["inflight_ops"],
			quantiles(m.sm, "op_get_ns"), quantiles(m.sm, "op_put_ns"),
			rateStr(m.rate(cur, "shed", dt)), rateStr(m.rate(cur, "teardowns", dt)))
		m.prev, m.prevAt = cur, now
	}

	// Replication latency, one line per member that has shipped or
	// committed anything (primaries; stale lines age out on restart).
	for _, m := range members {
		if m.err != nil {
			continue
		}
		ship, okS := m.sm.Hists["repl_ship_ack_ns"]
		cw, okC := m.sm.Hists["repl_commit_wait_ns"]
		if !okS || !okC || (ship.Count == 0 && cw.Count == 0) {
			continue
		}
		fmt.Fprintf(&b, "\n%-22s repl: ship->ack p50/p99 %s  commit-wait p50/p99 %s  queue-wait p50/p99 %s",
			m.addr, quantiles(m.sm, "repl_ship_ack_ns"), quantiles(m.sm, "repl_commit_wait_ns"),
			quantiles(m.sm, "queue_wait_ns"))
	}
	b.WriteString("\n")

	if traceMax > 0 {
		renderTraces(&b, members, traceMax)
	}
	return b.String()
}

// renderTraces shows the traceMax slowest traces across every member,
// each broken down span by span.
func renderTraces(b *strings.Builder, members []*member, traceMax int) {
	var slow []slowTrace
	for _, m := range members {
		if m.err != nil {
			continue
		}
		for _, tr := range m.traces {
			slow = append(slow, slowTrace{member: m.addr, tr: tr, span: traceSpanNs(tr)})
		}
	}
	if len(slow) == 0 {
		return
	}
	sort.Slice(slow, func(i, j int) bool { return slow[i].span > slow[j].span })
	if len(slow) > traceMax {
		slow = slow[:traceMax]
	}
	fmt.Fprintf(b, "\nSLOWEST TRACES (%d of the members' retained sample)\n", len(slow))
	for _, s := range slow {
		tag := ""
		if s.tr.Slow {
			tag = "  [tail-sampled]"
		}
		fmt.Fprintf(b, "  %016x  %s  %v%s\n", s.tr.TraceID, s.member, time.Duration(s.span), tag)
		// A traced batched mutation ships one span per entry; cap the
		// breakdown so one batch doesn't scroll the screen away.
		const maxSpanLines = 12
		spans, omitted := s.tr.Spans, 0
		if len(spans) > maxSpanLines {
			spans, omitted = spans[:maxSpanLines], len(spans)-maxSpanLines
		}
		for _, sp := range spans {
			op := ""
			if sp.Op != 0 {
				op = "op=" + wire.OpName(sp.Op) + " "
			}
			aux := ""
			if sp.Aux != 0 {
				aux = fmt.Sprintf(" aux=%d", sp.Aux)
			}
			fmt.Fprintf(b, "    %-13s %s%v%s\n", trace.KindName(sp.Kind), op, time.Duration(sp.Dur), aux)
		}
		if omitted > 0 {
			fmt.Fprintf(b, "    ... +%d more spans\n", omitted)
		}
	}
}

// quantiles renders a histogram's p50/p99 pair as durations ("-" when
// the instrument has recorded nothing).
func quantiles(sm *client.ServerMetrics, name string) string {
	h, ok := sm.Hists[name]
	if !ok || h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%v/%v",
		time.Duration(h.Quantile(0.50)).Round(100*time.Nanosecond),
		time.Duration(h.Quantile(0.99)).Round(100*time.Nanosecond))
}

func rateStr(r float64) string {
	if r < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", r)
}
