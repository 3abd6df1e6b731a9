package server

// Syscall gate for the connection buffers: each endpoint reads frames
// through one growing buffer and writes unbuffered (a lone frame as is,
// a pipelined burst gathered), so memory follows the traffic. What that
// must not cost is syscalls: a pipelined batch or scan stream has to
// keep landing several frames per read and per write, as it did through
// 64 KB bufio buffers on both sides.

import (
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/dict"
)

// procIO returns this process's read and write syscall counts (syscr,
// syscw in /proc/self/io), or ok == false where that file is absent.
func procIO() (reads, writes float64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, _ := strings.Cut(line, ": ")
		switch k {
		case "syscr":
			reads, _ = strconv.ParseFloat(v, 64)
		case "syscw":
			writes, _ = strconv.ParseFloat(v, 64)
		}
	}
	return reads, writes, true
}

// TestSyscallsPerFrame counts read and write syscalls, server and client
// together (they share this process), per request frame of each probe —
// per response chunk for the scan, per operation for the mux — and holds
// each at or below what 64 KB bufio buffers on both ends measured,
// plus a margin for scheduling noise of 10 % and 0.05. Shrinking the
// bufio buffers to a flat 4 KB instead fails it: 4.5 reads per MPUT
// frame, 2.1 reads and 1.0 writes per scan chunk.
func TestSyscallsPerFrame(t *testing.T) {
	if _, _, ok := procIO(); !ok {
		t.Skip("no /proc/self/io")
	}
	if raceEnabled {
		t.Skip("the race detector reshapes pipelined streams")
	}
	const n = 40_000 // 10 pipelined wire.MaxBatch frames; 40 scan chunks
	_, c := startServer(t, "occ", 1<<16)
	h := c.NewHandle()
	b := h.(dict.Batcher)
	keys, vals := make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(i)
	}
	outs, oks := make([]uint64, n), make([]bool, n)
	var sink uint64
	fn := func(_, v uint64) bool {
		sink += v
		return true
	}
	_, m := startMux(t, "occ", 1<<16)

	probes := []struct {
		name          string
		frames        float64
		reads, writes float64 // per frame with 64 KB bufio buffers
		run           func()
	}{
		{"point GET", 2000, 4.05, 2.05, func() {
			for i := 0; i < 2000; i++ {
				h.Find(uint64(1 + i))
			}
		}},
		{"MPUT", 50, 2.40, 1.70, func() {
			for i := 0; i < 5; i++ {
				b.InsertBatch(keys, vals, outs, oks)
			}
		}},
		{"MGET", 50, 1.94, 1.42, func() {
			for i := 0; i < 5; i++ {
				b.FindBatch(keys, outs, oks)
			}
		}},
		{"snapshot scan", 200, 0.57, 0.41, func() {
			for i := 0; i < 5; i++ {
				h.(dict.SnapshotRanger).RangeSnapshot(1, n, fn)
			}
		}},
		// The mux row's reference is the highest bufio reading over
		// GOMAXPROCS 1, 2 and 4: how many GETs share a frame, and so the
		// syscalls per GET, depends on how the 16 callers interleave.
		{"mux 16 x GET", 16 * 2000, 0.43, 0.83, func() {
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					mh := m.NewHandle()
					for i := 0; i < 2000; i++ {
						mh.Find(uint64(1 + (g*2000+i)%n))
					}
				}(g)
			}
			wg.Wait()
		}},
	}
	for _, p := range probes {
		// The least of five runs: scheduling adds syscalls (a read that
		// finds the socket empty), it never removes them.
		r, w := math.Inf(1), math.Inf(1)
		for rep := 0; rep < 5; rep++ {
			r0, w0, _ := procIO()
			p.run()
			r1, w1, _ := procIO()
			r, w = min(r, (r1-r0)/p.frames), min(w, (w1-w0)/p.frames)
		}
		t.Logf("%-14s %6.2f reads %6.2f writes per frame", p.name, r, w)
		if bound := 1.1*p.reads + 0.05; r > bound {
			t.Errorf("%s: %.2f reads per frame, want <= %.2f", p.name, r, bound)
		}
		if bound := 1.1*p.writes + 0.05; w > bound {
			t.Errorf("%s: %.2f writes per frame, want <= %.2f", p.name, w, bound)
		}
	}
	if sink == 0 {
		t.Fatal("scans returned nothing")
	}
}
