//go:build linux

package client_test

import (
	"net"
	"os"
	"strconv"
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

// TestBatchSmallSocketBuffers runs 10-frame MPUT, MGET and MDELETE
// batches over a handle connection whose socket buffers, at both ends,
// are 16 KB — the order of a fresh cross-host connection's, far below
// the megabytes a loopback socket starts with. The server reads a
// connection's socket only after writing its pending replies, so a
// client that wrote more frames than the buffers hold before reading a
// reply would block both ends in write until the write deadline. Each
// batch call has its own 10 s stall deadline, not the test as a whole:
// under -race the nine calls take several seconds together, while a
// deadlocked call never returns.
func TestBatchSmallSocketBuffers(t *testing.T) {
	const size = 16 << 10
	_, addr := startBackend(t)
	narrowSockets(t, addr, size) // the listener: accepted sockets inherit
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.NewHandle()
	h.Find(1) // dials the handle's connection
	if n := narrowSockets(t, addr, size); n < 3 {
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
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			batch()
		}()
		select {
		case r := <-done:
			if r != nil {
				t.Fatalf("%s, round %d: %v", name, round, r)
			}
		case <-time.After(10 * time.Second):
			c.Close()
			t.Fatalf("%s, round %d, still running after 10 s: both ends blocked writing", name, round)
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
