//go:build linux

package client_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/wire"
)

// narrowSockets gives every socket this process has bound or connected
// to addr — the server's listener and both ends of each connection, as
// client and server share the process — size-byte send and receive
// buffers (which also stops the kernel autotuning them) and an
// Ethernet-sized MSS. The MSS only takes effect for connections the
// listener accepts afterwards: left at loopback's 64 KB, segments larger
// than the buffers stall TCP itself. It returns how many sockets it set.
func narrowSockets(t *testing.T, addr string, size int) int {
	t.Helper()
	ta, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	is := func(sa syscall.Sockaddr) bool {
		a, ok := sa.(*syscall.SockaddrInet4)
		return ok && a.Port == ta.Port && net.IP(a.Addr[:]).Equal(ta.IP)
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, e := range ents {
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		local, err := syscall.Getsockname(fd)
		if err != nil {
			continue // not a socket
		}
		peer, _ := syscall.Getpeername(fd) // nil for the listener
		if !is(local) && (peer == nil || !is(peer)) {
			continue
		}
		if syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, size) != nil ||
			syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, size) != nil ||
			syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_MAXSEG, 1460) != nil {
			t.Fatalf("setsockopt on fd %d failed", fd)
		}
		n++
	}
	return n
}

// stalled runs op on a goroutine of its own and returns what it panicked
// with, or an error once it has run for 10 s: the sign of both ends
// blocked writing.
func stalled(op func()) error {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		op()
	}()
	select {
	case r := <-done:
		if r != nil {
			return fmt.Errorf("%v", r)
		}
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("still running after 10 s: both ends blocked writing")
	}
}

// TestBatchSmallSocketBuffers runs pipelined traffic over connections
// whose socket buffers, at both ends, are 16 KB — the order of a fresh
// cross-host connection's, far below the megabytes a loopback socket
// starts with. The server reads a connection's socket only after
// writing its pending replies, so a client that wrote more than the
// buffers hold before reading a reply would block both ends in write
// until the write deadline. Each call has its own 10 s stall deadline,
// not the test as a whole: under -race the calls take several seconds
// together, while a deadlocked call never returns.
//
// handle runs 10-frame MPUT, MGET and MDELETE batches over one handle's
// connection. mux runs 256 callers' mixed GETs, PUTs and DELETEs through
// a Mux, whose passes write up to three frames before reading.
func TestBatchSmallSocketBuffers(t *testing.T) {
	t.Run("handle", smallBuffersBatch)
	t.Run("mux", smallBuffersMux)
}

const smallBuffer = 16 << 10

func smallBuffersBatch(t *testing.T) {
	_, addr := startBackend(t)
	narrowSockets(t, addr, smallBuffer) // the listener: accepted sockets inherit
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.NewHandle()
	h.Find(1) // dials the handle's connection
	if n := narrowSockets(t, addr, smallBuffer); n < 3 {
		t.Fatalf("set %d sockets, want the listener and both ends of the handle's connection", n)
	}
	const n = 10 * wire.MaxBatch
	keys, vals := make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i+1), uint64(3*i)
	}
	got, oks := make([]uint64, n), make([]bool, n)
	call := func(name string, round int, batch func()) {
		t.Helper()
		if err := stalled(batch); err != nil {
			c.Close()
			t.Fatalf("%s, round %d: %v", name, round, err)
		}
	}
	b := h.(dict.Batcher)
	for round := 0; round < 3; round++ {
		call("MPUT", round, func() { b.InsertBatch(keys, vals, got, oks) })
		call("MGET", round, func() { b.FindBatch(keys, got, oks) })
		for i := range keys {
			if !oks[i] || got[i] != vals[i] {
				t.Fatalf("MGET of key %d missed its MPUT", keys[i])
			}
		}
		call("MDELETE", round, func() { b.DeleteBatch(keys, got, oks) })
	}
}

// smallBuffersMux has each caller insert, find and delete keys of its
// own, so every result is known, and logs the largest frame a pass
// carried.
func smallBuffersMux(t *testing.T) {
	_, addr := startBackend(t)
	narrowSockets(t, addr, smallBuffer)
	m, err := client.DialMux(addr, client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.NewHandle().Find(1) // the server has accepted the shared connection
	if n := narrowSockets(t, addr, smallBuffer); n < 5 {
		t.Fatalf("set %d sockets, want the listener and both ends of the control and shared connections", n)
	}
	const callers, keys = 256, 16
	errc := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.NewHandle()
			for i := uint64(0); i < keys; i++ {
				k := 1 + uint64(g)*keys + i
				var ins, found, del bool
				var v, prev uint64
				for _, op := range []func(){
					func() { _, ins = h.Insert(k, 3*k) },
					func() { v, found = h.Find(k) },
					func() { prev, del = h.Delete(k) },
				} {
					if err := stalled(op); err != nil {
						errc <- fmt.Errorf("caller %d, key %d: %v", g, k, err)
						return
					}
				}
				if !ins || !found || v != 3*k || !del || prev != 3*k {
					errc <- fmt.Errorf("caller %d, key %d: insert %v, find (%d, %v), delete (%d, %v)", g, k, ins, v, found, prev, del)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	cs := m.CoalesceStats()
	t.Logf("%d frames, largest %d waiters", cs.Count, cs.Max())
	if cs.Max() < 2 {
		t.Errorf("largest frame carried %d waiters, want >= 2 from %d callers", cs.Max(), callers)
	}
}
