// Package faultnet is an in-process TCP fault-injection proxy: it sits
// between a client and a server on loopback and perturbs the byte
// streams according to a deterministic seeded schedule — added delay,
// dropped connections, mid-frame truncation, byte corruption, and
// blackholes (a link that silently stops carrying bytes for a while,
// then dies, as a healing partition looks to one endpoint).
//
// It is the chaos half of the fault-tolerance story: the linearizability
// and reconnect tests (internal/server) and the abtree-crash -net drill
// drive real workloads through a Proxy and assert the client's
// retry/redial machinery and the server's admission/teardown machinery
// keep the recorded histories linearizable and every worker alive.
//
// Determinism: every proxied connection derives its own xrand stream
// from Config.Seed and the connection's accept index, so a given
// (seed, schedule, workload) replays the same per-connection fault
// decisions regardless of goroutine interleaving. Faults are drawn per
// forwarded chunk; probabilities are per-chunk rates in [0,1].
//
// The proxy is a test asset: it holds one goroutine per direction per
// connection and copies through small buffers — fine for drills,
// irrelevant for performance work (benchmarks connect directly).
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

// Fault kinds, in Stats order.
const (
	// KindDelay sleeps before forwarding a chunk (latency injection).
	KindDelay = iota
	// KindDrop closes both sides of the connection immediately.
	KindDrop
	// KindTruncate forwards a prefix of the chunk — usually severing a
	// frame mid-payload — then closes both sides.
	KindTruncate
	// KindCorrupt flips one byte of the chunk before forwarding it.
	// NOTE: the wire protocol has no checksums, so corrupting a response
	// payload can silently change data; linearizability drills use
	// delay/drop/truncate and keep Corrupt for decoder-robustness tests.
	KindCorrupt
	// KindBlackhole stops forwarding in both directions for
	// Config.BlackholeDur, then drops the connection — the connection's
	// view of a network partition that outlives it.
	KindBlackhole
	numKinds
)

var kindNames = [numKinds]string{"delay", "drop", "truncate", "corrupt", "blackhole"}

// KindName returns the human-readable name of a fault kind.
func KindName(kind int) string {
	if kind < 0 || kind >= numKinds {
		return "unknown"
	}
	return kindNames[kind]
}

// Config is a Proxy's fault schedule. The zero value injects nothing
// (a transparent proxy); rates are independent per-chunk probabilities,
// evaluated in the order delay, blackhole, drop, truncate, corrupt
// (at most one fault fires per chunk).
type Config struct {
	Seed uint64 // base seed for the per-connection fault streams

	DelayRate     float64       // P(delay a chunk)
	DelayDur      time.Duration // per-delay sleep (default 2ms)
	DropRate      float64       // P(drop the connection at a chunk)
	TruncateRate  float64       // P(truncate a chunk and drop)
	CorruptRate   float64       // P(flip one byte of a chunk)
	BlackholeRate float64       // P(blackhole the connection at a chunk)
	BlackholeDur  time.Duration // blackhole duration before the drop (default 20ms)

	// WarmupBytes lets this many bytes through each connection (per
	// direction) before any fault can fire, so handshake-ish traffic
	// (STATS on dial, prefill) can be exempted cheaply.
	WarmupBytes int
}

// ReproString renders the schedule as a one-line repro recipe. The
// fault decisions are fully determined by these values plus each
// connection's accept index, so a failing chaos run logs this string
// and the run is replayed by feeding the same values back into a
// Config (or the abtree-crash -net flags that construct one).
func (c Config) ReproString() string {
	return fmt.Sprintf(
		"faultnet seed=%d delay=%g/%s drop=%g truncate=%g corrupt=%g blackhole=%g/%s warmup=%d",
		c.Seed, c.DelayRate, c.DelayDur, c.DropRate, c.TruncateRate,
		c.CorruptRate, c.BlackholeRate, c.BlackholeDur, c.WarmupBytes)
}

// Stats counts what a Proxy has done so far.
type Stats struct {
	Conns    uint64 // connections proxied
	Active   int64  // connections currently live
	Injected [numKinds]uint64
}

// Total returns the total number of injected faults across kinds.
func (s Stats) Total() uint64 {
	var t uint64
	for _, v := range s.Injected {
		t += v
	}
	return t
}

func (s Stats) String() string {
	out := fmt.Sprintf("conns=%d active=%d", s.Conns, s.Active)
	for k, v := range s.Injected {
		out += fmt.Sprintf(" %s=%d", kindNames[k], v)
	}
	return out
}

// Proxy is one running fault-injection proxy.
type Proxy struct {
	target string
	cfg    Config

	l net.Listener

	mu     sync.Mutex
	conns  map[*proxyConn]struct{}
	closed bool
	nconns uint64
	wg     sync.WaitGroup

	injected [numKinds]atomic.Uint64
	active   atomic.Int64
}

// New builds a proxy forwarding to target with the given schedule.
func New(target string, cfg Config) *Proxy {
	if cfg.DelayDur <= 0 {
		cfg.DelayDur = 2 * time.Millisecond
	}
	if cfg.BlackholeDur <= 0 {
		cfg.BlackholeDur = 20 * time.Millisecond
	}
	return &Proxy{target: target, cfg: cfg, conns: make(map[*proxyConn]struct{})}
}

// Start listens on addr (e.g. "127.0.0.1:0") and begins proxying.
func (p *Proxy) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.Close()
		return nil, fmt.Errorf("faultnet: proxy already closed")
	}
	p.l = l
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(l)
	return l.Addr(), nil
}

// Close stops the listener and kills every proxied connection.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	l := p.l
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.kill()
	}
	p.wg.Wait()
	return nil
}

// DropAll severs every live proxied connection right now — the scripted
// "pull the cable" fault. Returns how many connections it killed.
func (p *Proxy) DropAll() int {
	p.mu.Lock()
	conns := make([]*proxyConn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	n := 0
	for _, c := range conns {
		if c.killCounted(KindDrop) {
			n++
		}
	}
	return n
}

// Stats snapshots the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	nconns := p.nconns
	p.mu.Unlock()
	s := Stats{Conns: nconns, Active: p.active.Load()}
	for k := range s.Injected {
		s.Injected[k] = p.injected[k].Load()
	}
	return s
}

func (p *Proxy) acceptLoop(l net.Listener) {
	defer p.wg.Done()
	for {
		down, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			down.Close()
			continue
		}
		c := &proxyConn{p: p, down: down, up: up}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			up.Close()
			return
		}
		idx := p.nconns
		p.nconns++
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.active.Add(1)
		p.wg.Add(2)
		// Each direction gets its own deterministic stream: the seed
		// folds in the accept index and the direction.
		go c.pump(down, up, xrand.New(p.cfg.Seed*2654435761+idx*2+1))
		go c.pump(up, down, xrand.New(p.cfg.Seed*2654435761+idx*2+2))
	}
}

// proxyConn is one proxied connection pair. kill closes both sides
// exactly once; either pump's exit kills the pair (a TCP connection
// half-dying is not a fault mode the wire protocol distinguishes).
type proxyConn struct {
	p    *Proxy
	down net.Conn // client side
	up   net.Conn // server side
	once sync.Once
}

func (c *proxyConn) kill() {
	c.once.Do(func() {
		c.down.Close()
		c.up.Close()
		c.p.mu.Lock()
		delete(c.p.conns, c)
		c.p.mu.Unlock()
		c.p.active.Add(-1)
	})
}

// killCounted kills the pair and counts the fault, reporting whether
// this call was the one that killed it. The fault is counted before the
// sockets close, so a peer that sees the connection die also sees the
// count in Stats.
func (c *proxyConn) killCounted(kind int) bool {
	killed := false
	c.once.Do(func() {
		c.p.injected[kind].Add(1)
		c.down.Close()
		c.up.Close()
		c.p.mu.Lock()
		delete(c.p.conns, c)
		c.p.mu.Unlock()
		c.p.active.Add(-1)
		killed = true
	})
	return killed
}

// pump copies src -> dst in chunks, consulting the fault schedule per
// chunk. It exits (killing the pair) on any copy error.
func (c *proxyConn) pump(src, dst net.Conn, rng *xrand.Rand) {
	defer c.p.wg.Done()
	defer c.kill()
	cfg := &c.p.cfg
	buf := make([]byte, 16<<10)
	forwarded := 0
	for {
		n, err := src.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if forwarded >= cfg.WarmupBytes {
				if !c.perturb(&chunk, dst, rng) {
					return // fault consumed the connection
				}
			}
			forwarded += n
			if len(chunk) > 0 {
				if _, werr := dst.Write(chunk); werr != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// perturb applies at most one scheduled fault to the chunk about to be
// forwarded. It returns false when the fault killed the connection (a
// truncated prefix, if any, has already been written).
func (c *proxyConn) perturb(chunk *[]byte, dst net.Conn, rng *xrand.Rand) bool {
	cfg := &c.p.cfg
	roll := float64(rng.Uint64()>>11) / (1 << 53)
	switch {
	case roll < cfg.DelayRate:
		c.p.injected[KindDelay].Add(1)
		time.Sleep(cfg.DelayDur)
	case roll < cfg.DelayRate+cfg.BlackholeRate:
		if c.killAfter(KindBlackhole, cfg.BlackholeDur) {
			return false
		}
	case roll < cfg.DelayRate+cfg.BlackholeRate+cfg.DropRate:
		if c.killCounted(KindDrop) {
			return false
		}
	case roll < cfg.DelayRate+cfg.BlackholeRate+cfg.DropRate+cfg.TruncateRate:
		// Forward a strict prefix (possibly empty), then die mid-frame.
		cut := int(rng.Uint64n(uint64(len(*chunk))))
		if cut > 0 {
			dst.Write((*chunk)[:cut])
		}
		if c.killCounted(KindTruncate) {
			return false
		}
	case roll < cfg.DelayRate+cfg.BlackholeRate+cfg.DropRate+cfg.TruncateRate+cfg.CorruptRate:
		c.p.injected[KindCorrupt].Add(1)
		(*chunk)[rng.Uint64n(uint64(len(*chunk)))] ^= 0xA5
	}
	return true
}

// killAfter blackholes the pair: it sleeps dur (forwarding nothing —
// the peer sees a silent link), then kills the connection. Reports
// whether this pump performed the kill.
func (c *proxyConn) killAfter(kind int, dur time.Duration) bool {
	time.Sleep(dur)
	return c.killCounted(kind)
}
