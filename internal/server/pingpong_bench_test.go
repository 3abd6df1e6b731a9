package server

// BenchmarkLoopbackPingPong is the floor under the remote workloads: N
// closed-loop goroutine pairs exchanging a point request's worth of
// bytes (21 out, 22 back: wire.point_rtt_bytes = 43) over 127.0.0.1
// with no tree, no codec, no queue and no worker behind the socket.
// Its round trips per second at 2 pairs are what two per-key
// closed-loop clients could reach if the server cost nothing, so it
// bounds what removing handoffs from the request path (ROADMAP 1(c))
// can buy on this host; EXPERIMENTS.md reads it next to remote-point.

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

const (
	pingBytes = 21
	pongBytes = 22
)

func BenchmarkLoopbackPingPong(b *testing.B) {
	for _, pairs := range []int{1, 2, 4} {
		pairs := pairs
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) { loopbackPingPong(b, pairs) })
	}
}

func loopbackPingPong(b *testing.B, pairs int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	// Each echo goroutine ends when its client closes the connection.
	var echoes sync.WaitGroup
	clients := make([]net.Conn, pairs)
	for i := range clients {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = c
		s, err := ln.Accept()
		if err != nil {
			b.Fatal(err)
		}
		echoes.Add(1)
		go func() {
			defer echoes.Done()
			defer s.Close()
			var ping [pingBytes]byte
			var pong [pongBytes]byte
			for {
				if _, err := io.ReadFull(s, ping[:]); err != nil {
					return
				}
				if _, err := s.Write(pong[:]); err != nil {
					return
				}
			}
		}()
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for i, c := range clients {
		n := b.N / pairs
		if i < b.N%pairs {
			n++
		}
		wg.Add(1)
		go func(c net.Conn, n int) {
			defer wg.Done()
			var ping [pingBytes]byte
			var pong [pongBytes]byte
			for ; n > 0; n-- {
				if _, err := c.Write(ping[:]); err != nil {
					b.Error(err)
					return
				}
				if _, err := io.ReadFull(c, pong[:]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "roundtrips/s")

	for _, c := range clients {
		c.Close()
	}
	echoes.Wait()
}
