package server

// Replication-layer tests: a real primary/follower pair (or triple) on
// loopback ports, driven through internal/client — log shipping, ack
// gating, role enforcement, promotion fencing, and the per-connection
// rate limiter.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/wire"
)

// startReplPair spins up one follower and one primary shipping to it,
// both hosting name over keyRange.
func startReplPair(t *testing.T, name string, keyRange uint64) (prim, fol *Server, paddr, faddr string) {
	t.Helper()
	f, err := New(testBuilder, name, keyRange, Config{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	fa, err := f.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	p, err := New(testBuilder, name, keyRange, Config{Followers: []string{fa.String()}})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, f, pa.String(), fa.String()
}

// waitReplSeq polls a server's STATS until its replicated position
// reaches want (follower apply is asynchronous).
func waitReplSeq(t *testing.T, addr string, want uint64) wire.Stats {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.ReplSeq >= want || time.Now().After(deadline) {
			if st.ReplSeq < want {
				t.Fatalf("%s: repl seq %d never reached %d", addr, st.ReplSeq, want)
			}
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationShipsLog: every acked mutation shows up on the
// follower, sequence positions and roles are visible via STATS, and
// the follower's key sum converges to the primary's.
func TestReplicationShipsLog(t *testing.T) {
	_, _, paddr, faddr := startReplPair(t, "occ", 1<<16)
	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	h := pc.NewHandle()
	const n = 200
	for i := uint64(1); i <= n; i++ {
		h.Insert(i, i*10)
	}
	for i := uint64(1); i <= n; i += 2 {
		h.Delete(i)
	}
	wantSeq := uint64(n + n/2) // every op above was effective
	pst, err := pc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pst.Role != wire.RolePrimary {
		t.Fatalf("primary reports role %s", wire.RoleName(pst.Role))
	}
	// Sync-1: every mutation above was acked, so the follower holds all
	// of them (its STATS may briefly trail the last ack's processing).
	fst := waitReplSeq(t, faddr, wantSeq)
	if fst.Role != wire.RoleFollower {
		t.Fatalf("follower reports role %s", wire.RoleName(fst.Role))
	}
	if fst.KeySum != pst.KeySum {
		t.Fatalf("follower key sum %d != primary %d", fst.KeySum, pst.KeySum)
	}
	// Follower reads serve the replicated data directly.
	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fh := fc.NewHandle()
	if v, ok := fh.Find(2); !ok || v != 20 {
		t.Fatalf("follower Find(2) = %d,%v want 20,true", v, ok)
	}
	if _, ok := fh.Find(1); ok {
		t.Fatal("follower still holds deleted key 1")
	}
}

// TestFollowerRejectsMutations: the read-only rejection is an
// application error matching client.ErrReadOnly, and the follower keeps
// serving afterwards.
func TestFollowerRejectsMutations(t *testing.T) {
	_, _, _, faddr := startReplPair(t, "occ", 1<<16)
	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	h := fc.NewHandle().(client.TryHandle)
	if _, _, err := h.TryInsert(7, 70); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("follower TryInsert: %v, want ErrReadOnly", err)
	}
	if _, _, err := h.TryDelete(7); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("follower TryDelete: %v, want ErrReadOnly", err)
	}
	if _, _, err := h.TryFind(7); err != nil {
		t.Fatalf("follower TryFind after rejections: %v", err)
	}
}

// TestPromotionFencesOldPrimary: after promotion the ex-follower acks
// client mutations itself, refuses REPLICATE (fencing the deposed
// primary's sender), and re-promotion is idempotent.
func TestPromotionFencesOldPrimary(t *testing.T) {
	prim, fol, paddr, faddr := startReplPair(t, "occ", 1<<16)
	pc, err := client.Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	h := pc.NewHandle()
	for i := uint64(1); i <= 50; i++ {
		h.Insert(i, i)
	}
	pc.Close()
	waitReplSeq(t, faddr, 50)
	prim.Close() // the drill's crash

	fc, err := client.Dial(faddr)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	if err := fc.Promote(0, nil); err != nil { // no surviving followers: ack none
		t.Fatalf("promote: %v", err)
	}
	if err := fc.Promote(0, nil); err != nil {
		t.Fatalf("re-promote not idempotent: %v", err)
	}
	st, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != wire.RolePrimary {
		t.Fatalf("promoted server reports role %s", wire.RoleName(st.Role))
	}
	// The new primary serves mutations and retains the acked prefix.
	nh := fc.NewHandle()
	if v, ok := nh.Find(17); !ok || v != 17 {
		t.Fatalf("promoted primary lost acked write: Find(17) = %d,%v", v, ok)
	}
	if _, ok := nh.Insert(1000, 1); ok != true {
		t.Fatal("promoted primary refused an insert")
	}
	if got := fol.MetricsDump().Counters["failovers_total"]; got != 1 {
		t.Fatalf("failovers_total = %d, want 1", got)
	}
	_ = prim
}

// TestRateLimit: a tiny per-connection budget turns a burst into BUSY
// rejections the client absorbs by backing off — every op still
// completes exactly once, and rate_limited_total counts the pushback.
// A rate-limit BUSY leaves the connection healthy, so the client
// resends on it: no read costs a redial, which would also hand the
// handle a fresh, full bucket. The inputs read the inserted keys back
// by point lookups and by scans.
func TestRateLimit(t *testing.T) {
	reads := []struct {
		name string
		read func(h dict.Handle, k uint64) (uint64, bool)
	}{
		{"find", func(h dict.Handle, k uint64) (uint64, bool) { return h.Find(k) }},
		{"scan", func(h dict.Handle, k uint64) (v uint64, ok bool) {
			h.(dict.Ranger).Range(k, k, func(_, val uint64) bool {
				v, ok = val, true
				return true
			})
			return v, ok
		}},
	}
	for _, in := range reads {
		t.Run(in.name, func(t *testing.T) {
			s, err := New(testBuilder, "occ", 1<<16, Config{RateLimit: 200})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			c, err := client.DialConfig(addr.String(), client.Config{RetryAttempts: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			h := c.NewHandle()
			for i := uint64(1); i <= 200; i++ {
				if _, ok := h.Insert(i, i); !ok {
					t.Fatalf("insert %d reported duplicate on a fresh tree", i)
				}
			}
			before := c.FaultStats()
			for i := uint64(1); i <= 200; i++ {
				if v, ok := in.read(h, i); !ok || v != i {
					t.Fatalf("read %d = %d,%v after rate-limited burst", i, v, ok)
				}
			}
			dump := s.MetricsDump()
			if dump.Counters["rate_limited_total"] == 0 {
				t.Fatal("rate limiter never fired on a 400-op burst at 200 rps (bucket depth 200)")
			}
			fs := c.FaultStats()
			if fs.Busy == before.Busy {
				t.Fatalf("client absorbed no BUSY rejections on its reads: %+v", fs)
			}
			if fs.Redials != 0 {
				t.Fatalf("rate-limited requests redialed: %+v, want 0 redials", fs)
			}
		})
	}
}

// TestRateLimitBatchDeficitBounded pins the bounded-deficit rule: a
// batch overdraws the bucket by at most one extra burst, so a point op
// issued right after a huge batch recovers within a modest retry
// budget. With an unbounded deficit the 2048-key batch below would
// leave the bucket ~20s in debt at 100 rps and the Insert would exhaust
// its retries.
func TestRateLimitBatchDeficitBounded(t *testing.T) {
	s, err := New(testBuilder, "occ", 1<<16, Config{RateLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	// 16 attempts back off for 1.25-3.75 s in total (jitter included).
	c, err := client.DialConfig(addr.String(), client.Config{RetryAttempts: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.NewHandle()
	bt, ok := h.(dict.Batcher)
	if !ok {
		t.Fatal("client handle lacks Batcher")
	}
	keys := make([]uint64, 2048)
	vals := make([]uint64, 2048)
	prev := make([]uint64, 2048)
	ins := make([]bool, 2048)
	for i := range keys {
		keys[i] = uint64(i) + 2
		vals[i] = uint64(i) + 2
	}
	bt.InsertBatch(keys, vals, prev, ins) // charged 2048 against a 100-token bucket, never rejected
	// Debt is clamped at -burst, so the wait for the next token is
	// (burst+1)/rate = 1.01s — inside the retry budget above. This Insert
	// panicking = the deficit is unbounded.
	if _, inserted := h.Insert(60_000, 1); !inserted {
		t.Fatal("post-batch insert reported duplicate on a fresh key")
	}
}
