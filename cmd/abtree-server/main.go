// Command abtree-server hosts any registry structure — sharded entries
// included — behind the internal/wire TCP protocol, turning the
// in-process trees into a network KV/scan service the remote workload
// driver (abtree-bench -remote) and the Go client (internal/client) can
// load from other processes or machines.
//
// Usage:
//
//	abtree-server -addr :7471 -structure shard8-occ-abtree -keys 1000000
//	abtree-server -addr 127.0.0.1:7471 -structure OCC-ABtree -max-conns 256
//
// Observability: the server keeps per-opcode latency histograms,
// queue-wait times, connection gauges and error counters (see
// internal/metrics), reachable three ways:
//
//	abtree-server -debug 127.0.0.1:6060      # HTTP: /debug/metrics + /debug/traces JSON, net/http/pprof
//	abtree-server -trace-slow 10ms           # log ops slower than 10ms
//	(any client)                             # the wire METRICS operation
//
// The server hosts one structure at a time. Clients may replace it with
// the protocol's OPEN operation (the remote bench driver opens a fresh
// structure per experiment cell), so treat the server as a benchmarking
// and integration endpoint, not a durable multi-tenant store.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7471", "TCP listen address")
		structure = flag.String("structure", "OCC-ABtree", "registry structure to host initially (see abtree-bench)")
		keys      = flag.Uint64("keys", 1_000_000, "key range the hosted structure is sized for")
		debugAddr = flag.String("debug", "", "HTTP listen address for /debug/metrics (JSON instrument dump) and /debug/pprof (empty = off)")
		traceSlow = flag.Duration("trace-slow", 0, "log any operation whose service time reaches this (0 = off)")
		maxConns  = flag.Int("max-conns", 0, "max concurrent connections; over-cap accepts get one BUSY frame and close (0 = unlimited)")
		idleTO    = flag.Duration("idle-timeout", 0, "reap connections idle for this long (0 = never)")
		drainTO   = flag.Duration("drain-timeout", 10*time.Second, "on SIGINT/SIGTERM, drain in-flight requests for up to this long before closing hard (0 = close immediately)")
		rateLimit = flag.Float64("rate-limit", 0, "per-connection request budget in ops/sec (token bucket of depth max(rate, 32)), enforced with BUSY pushback (0 = off)")

		followers = flag.String("followers", "", "comma-separated follower addresses: host this server as a partition PRIMARY shipping its op log to them")
		follow    = flag.Bool("follow", false, "host this server as a partition FOLLOWER: read-only, applies REPLICATE streams, promotable")
		ackFol    = flag.Int("ack", 0, "with -followers: follower acks required before a write is acked to the client (0 = sync-1 default, negative = none)")
		partition = flag.Uint64("partition", 0, "partition index reported via STATS so cluster routers can place this replica")
	)
	flag.Parse()

	var followerList []string
	if *followers != "" {
		followerList = strings.Split(*followers, ",")
	}
	if *follow && len(followerList) > 0 {
		fmt.Fprintln(os.Stderr, "abtree-server: -follow and -followers are mutually exclusive (a replica is a primary or a follower)")
		os.Exit(1)
	}

	s, err := server.New(bench.NewDict, *structure, *keys, server.Config{
		Logf:         log.Printf,
		TraceSlow:    *traceSlow,
		MaxConns:     *maxConns,
		IdleTimeout:  *idleTO,
		RateLimit:    *rateLimit,
		Followers:    followerList,
		Follower:     *follow,
		AckFollowers: *ackFol,
		Partition:    *partition,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "abtree-server: %v\n", err)
		os.Exit(1)
	}
	bound, err := s.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abtree-server: %v\n", err)
		os.Exit(1)
	}
	role := "standalone"
	switch {
	case *follow:
		role = fmt.Sprintf("follower (partition %d)", *partition)
	case len(followerList) > 0:
		role = fmt.Sprintf("primary (partition %d, followers %v)", *partition, followerList)
	}
	fmt.Printf("abtree-server: hosting %s (keys %d) on %s as %s\n", *structure, *keys, bound, role)

	if *debugAddr != "" {
		go serveDebug(*debugAddr, s)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if *drainTO <= 0 {
		fmt.Println("abtree-server: shutting down")
		s.Close()
		return
	}
	fmt.Printf("abtree-server: draining (up to %v; signal again to close hard)\n", *drainTO)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Printf("abtree-server: drain cut short: %v\n", err)
		return
	}
	fmt.Println("abtree-server: drained")
}

// serveDebug runs the operator HTTP listener: an expvar-style JSON dump
// of every server instrument at /debug/metrics, the trace collector's
// retained traces at /debug/traces (?max=N bounds the dump), plus the
// standard pprof handlers. A dedicated mux (not http.DefaultServeMux)
// keeps the surface explicit.
func serveDebug(addr string, s *server.Server) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.MetricsDump()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		max := 0
		if q := r.URL.Query().Get("max"); q != "" {
			if n, err := strconv.Atoi(q); err == nil {
				max = n
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.TracesDump(max)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	fmt.Printf("abtree-server: debug endpoint on http://%s/debug/metrics\n", addr)
	if err := hs.ListenAndServe(); err != nil {
		fmt.Fprintf(os.Stderr, "abtree-server: debug listener: %v\n", err)
	}
}
