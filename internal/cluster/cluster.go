// Package cluster is the client-side router for a replicated,
// range-partitioned abtree deployment: N partitions over the keyspace
// (internal/shard's Bounds), each served by one primary and its
// followers (internal/server replication, PROMOTE/role STATS over
// internal/wire).
//
// The router implements dict.Dict, so every harness that drives a
// single server through internal/client drives a whole cluster
// unchanged. Per operation it:
//
//   - routes the key to its partition and targets the current primary;
//   - on a definite failure (dial refused, retries exhausted before any
//     frame left, a follower's read-only rejection) re-resolves roles
//     via STATS, promotes the most-caught-up live member if no primary
//     answers, and retries the operation — definite failures mean the
//     mutation provably did not execute, so the replay is safe;
//   - on an ambiguous failure (client.ErrAmbiguous: the frame may have
//     reached the dying primary) it still triggers failover for
//     subsequent operations but surfaces the ambiguity — the caller
//     (or the linearizability recorder, via Maybe ops) owns it;
//   - optionally serves reads from followers, guarded by the
//     read-your-writes fence: each partition tracks the highest
//     committed position any acked mutation through this router
//     reported, and a follower read is only accepted if the follower's
//     apply position (stamped on the response before the read executed)
//     has caught up to the fence; otherwise the read falls back to the
//     primary.
//
// Scope: failover handles crashed primaries. A live-but-partitioned old
// primary (split brain) is out of scope — the promoted follower fences
// replication from it, but clients still routed at it may read stale
// state until their next definite failure.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/dict"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Partition names one partition's members. Primary is the address the
// router targets first; Followers are its replicas (failover
// candidates, optional read servers).
type Partition struct {
	Primary   string
	Followers []string
}

// Config describes the cluster and the router's policies.
type Config struct {
	// Partitions in ascending key order; partition i owns the i-th
	// equal slice of [1, KeyRange] (the last one unbounded above): the
	// partition map is internal/shard's Bounds.
	Partitions []Partition
	// KeyRange sizes the partition bounds. Required.
	KeyRange uint64
	// Client is the dial/retry policy for every member connection.
	// Failover latency is dominated by this policy's retry budget
	// against dead members — drills use a small one.
	Client client.Config
	// ReadFollowers serves GETs from followers when the fence allows.
	// The fence is a session guarantee scoped to this router —
	// read-your-writes for every mutation acked through it — not full
	// linearizability: two reads through different followers may still
	// order a concurrent write differently. Leave it off for workloads
	// checked by the linearizability recorder; primary reads are
	// committed-only and linearizable.
	ReadFollowers bool
	// AckFollowers is the ack policy installed when the router promotes
	// a follower: how many follower acks a write needs before the new
	// primary acks it. 0 means the default (1); negative means none
	// (unsafe: acked writes can die with the primary). Capped at the
	// number of live members the promotion can still reach.
	AckFollowers int
	// Logf, when set, receives failover and resolution events.
	Logf func(format string, args ...any)
}

// maxFailovers bounds how many failover-and-retry rounds one operation
// attempts before giving up.
const maxFailovers = 3

// Dict is the routing dictionary. Safe for concurrent use through
// per-goroutine handles, like every dict.Dict.
type Dict struct {
	cfg     Config
	parts   []*partState
	bounds  shard.Bounds
	clients map[string]*client.Client

	failovers atomic.Uint64 // primary changes this router performed
}

// partState is one partition's routing state, shared by all handles.
type partState struct {
	idx     int
	members []string     // members[0] is the configured primary
	primary atomic.Int32 // index into members of the current primary
	fence   atomic.Uint64
	rr      atomic.Uint32 // follower round-robin cursor
	mu      sync.Mutex    // serializes failover resolution
}

// New dials every member of every partition and resolves initial roles.
// All members must be reachable at construction time.
func New(cfg Config) (*Dict, error) {
	if len(cfg.Partitions) == 0 {
		return nil, errors.New("cluster: no partitions")
	}
	if cfg.KeyRange == 0 {
		return nil, errors.New("cluster: KeyRange is required")
	}
	n := len(cfg.Partitions)
	d := &Dict{
		cfg:     cfg,
		bounds:  shard.NewBounds(n, cfg.KeyRange),
		clients: make(map[string]*client.Client),
	}
	for i, p := range cfg.Partitions {
		members := append([]string{p.Primary}, p.Followers...)
		ps := &partState{idx: i, members: members}
		for _, a := range members {
			if _, ok := d.clients[a]; ok {
				continue
			}
			c, err := client.DialConfig(a, cfg.Client)
			if err != nil {
				d.Close()
				return nil, fmt.Errorf("cluster: partition %d: %w", i, err)
			}
			d.clients[a] = c
		}
		d.parts = append(d.parts, ps)
	}
	// Adopt whatever roles the servers actually report (an operator may
	// have promoted since the config was written).
	for _, p := range d.parts {
		p.mu.Lock()
		d.resolveLocked(p, false)
		p.mu.Unlock()
	}
	return d, nil
}

// Close closes every member client.
func (d *Dict) Close() error {
	var first error
	for _, c := range d.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Partitions returns the partition count.
func (d *Dict) Partitions() int { return len(d.parts) }

// Failovers returns how many primary changes this router performed
// (promotions plus adoptions of an externally promoted primary).
func (d *Dict) Failovers() uint64 { return d.failovers.Load() }

// PrimaryAddrs returns the current primary address of each partition.
func (d *Dict) PrimaryAddrs() []string {
	out := make([]string, len(d.parts))
	for i, p := range d.parts {
		out[i] = p.members[p.primary.Load()]
	}
	return out
}

// KeySum sums the partitions' primary key sums (quiescent only, like
// every KeySum in this repository).
func (d *Dict) KeySum() uint64 {
	var sum uint64
	for _, p := range d.parts {
		sum += d.clients[p.members[p.primary.Load()]].KeySum()
	}
	return sum
}

func (d *Dict) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// raiseFence lifts the partition's read-your-writes fence to seq (a
// committed position some response proved).
func (p *partState) raiseFence(seq uint64) {
	for {
		cur := p.fence.Load()
		if seq <= cur || p.fence.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// pickFollower returns the next non-primary member round-robin.
func (p *partState) pickFollower() (string, bool) {
	n := len(p.members)
	if n < 2 {
		return "", false
	}
	prim := int(p.primary.Load())
	k := int(p.rr.Add(1)) % n
	if k < 0 {
		k += n
	}
	for i := 0; i < n; i++ {
		if idx := (k + i) % n; idx != prim {
			return p.members[idx], true
		}
	}
	return "", false
}

// failover re-resolves the partition's primary, but only if it is still
// the one the failing operation observed — concurrent ops that hit the
// same dead primary collapse into one resolution.
func (d *Dict) failover(p *partState, observed int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.primary.Load() != observed {
		return
	}
	d.resolveLocked(p, true)
}

// resolveLocked re-derives the partition's primary from live members'
// STATS. Preference order: a member already reporting RolePrimary (the
// most-caught-up one if several claim it), else promote the live member
// with the highest replicated position. Callers hold p.mu.
func (d *Dict) resolveLocked(p *partState, count bool) {
	type member struct {
		idx int
		st  wire.Stats
	}
	var live []member
	for i, addr := range p.members {
		st, err := d.clients[addr].Stats()
		if err != nil {
			d.logf("cluster: partition %d: %s unreachable during resolve: %v", p.idx, addr, err)
			continue
		}
		live = append(live, member{i, st})
	}
	if len(live) == 0 {
		d.logf("cluster: partition %d: no live members", p.idx)
		return
	}
	adopt := func(idx int) {
		if int32(idx) != p.primary.Load() {
			p.primary.Store(int32(idx))
			if count {
				d.failovers.Add(1)
			}
			d.logf("cluster: partition %d: primary is now %s", p.idx, p.members[idx])
		}
	}
	best := -1
	var bestSeq uint64
	for _, m := range live {
		if m.st.Role == wire.RolePrimary && (best < 0 || m.st.ReplSeq > bestSeq) {
			best, bestSeq = m.idx, m.st.ReplSeq
		}
	}
	if best >= 0 {
		adopt(best)
		return
	}
	// No live primary: promote the most-caught-up live member, shipping
	// to every other member (the dead primary's sender retries until it
	// returns), with the ack policy capped at what is still reachable.
	winner := live[0]
	for _, m := range live[1:] {
		if m.st.ReplSeq > winner.st.ReplSeq {
			winner = m
		}
	}
	var addrs []string
	for i, a := range p.members {
		if i != winner.idx {
			addrs = append(addrs, a)
		}
	}
	ack := d.cfg.AckFollowers
	if ack == 0 {
		ack = 1
	} else if ack < 0 {
		ack = 0
	}
	if ack > len(live)-1 {
		ack = len(live) - 1
	}
	winAddr := p.members[winner.idx]
	if err := d.clients[winAddr].Promote(ack, addrs); err != nil {
		d.logf("cluster: partition %d: promote %s failed: %v", p.idx, winAddr, err)
		return
	}
	d.logf("cluster: partition %d: promoted %s (seq %d, ack %d)", p.idx, winAddr, winner.st.ReplSeq, ack)
	adopt(winner.idx)
}

// --- handles ----------------------------------------------------------

// clusterHandle is the per-goroutine accessor: one lazily dialed member
// handle per address it has touched. Implements dict.Handle,
// client.TryHandle and (weakly) dict.Ranger.
type clusterHandle struct {
	d    *Dict
	subs map[string]dict.Handle
}

// NewHandle returns a per-goroutine accessor (dict.Dict).
func (d *Dict) NewHandle() dict.Handle {
	return &clusterHandle{d: d, subs: make(map[string]dict.Handle)}
}

// sub returns this goroutine's handle to addr, dialing on first use.
func (h *clusterHandle) sub(addr string) (dict.Handle, error) {
	if s, ok := h.subs[addr]; ok {
		return s, nil
	}
	s, err := h.d.clients[addr].NewTryHandle()
	if err != nil {
		return nil, err
	}
	h.subs[addr] = s
	return s, nil
}

// onPrimary runs op against the partition's primary under the failover
// policy. mutation selects the ambiguity rule: an ambiguous mutation
// surfaces ErrAmbiguous (after triggering failover for later ops),
// while reads — always safe to re-execute — retry through it.
func (h *clusterHandle) onPrimary(p *partState, mutation bool,
	op func(t client.TryHandle) (uint64, bool, error)) (uint64, bool, error) {
	d := h.d
	var lastErr error
	for attempt := 0; attempt <= maxFailovers; attempt++ {
		prim := p.primary.Load()
		s, err := h.sub(p.members[prim])
		if err != nil {
			lastErr = err
			d.failover(p, prim)
			continue
		}
		t, ok := s.(client.TryHandle)
		if !ok {
			return 0, false, errors.New("cluster: member handle lacks TryHandle")
		}
		v, applied, err := op(t)
		if err == nil {
			if sq, ok := s.(client.Seqer); ok {
				p.raiseFence(sq.ReplSeq())
			}
			return v, applied, nil
		}
		lastErr = err
		d.failover(p, prim)
		if mutation && errors.Is(err, client.ErrAmbiguous) {
			// The frame may have reached the dying primary; a replay
			// could double-apply. The caller owns the uncertainty.
			return 0, false, err
		}
		// Definite failures — ErrReadOnly (that member is not the
		// primary; the mutation was rejected unexecuted) and transport
		// errors before any frame left — are safe to retry against the
		// re-resolved primary.
	}
	return 0, false, fmt.Errorf("cluster: partition %d unavailable: %w", p.idx, lastErr)
}

// TryFind routes a read: through a fenced follower when allowed and
// caught up, else through the primary.
func (h *clusterHandle) TryFind(key uint64) (uint64, bool, error) {
	d := h.d
	p := d.parts[d.bounds.Route(key)]
	if d.cfg.ReadFollowers {
		if addr, ok := p.pickFollower(); ok {
			if s, err := h.sub(addr); err == nil {
				if t, tok := s.(client.TryHandle); tok {
					v, found, err := t.TryFind(key)
					if err == nil {
						if sq, sok := s.(client.Seqer); sok && sq.ReplSeq() >= p.fence.Load() {
							return v, found, nil
						}
						// Follower behind the fence: fall through to the
						// primary rather than serve a possibly stale read.
					}
				}
			}
		}
	}
	return h.onPrimary(p, false, func(t client.TryHandle) (uint64, bool, error) {
		return t.TryFind(key)
	})
}

// TryInsert routes a mutation to its partition's primary.
func (h *clusterHandle) TryInsert(key, val uint64) (uint64, bool, error) {
	p := h.d.parts[h.d.bounds.Route(key)]
	return h.onPrimary(p, true, func(t client.TryHandle) (uint64, bool, error) {
		return t.TryInsert(key, val)
	})
}

// TryDelete routes a mutation to its partition's primary.
func (h *clusterHandle) TryDelete(key uint64) (uint64, bool, error) {
	p := h.d.parts[h.d.bounds.Route(key)]
	return h.onPrimary(p, true, func(t client.TryHandle) (uint64, bool, error) {
		return t.TryDelete(key)
	})
}

// Find implements dict.Handle; panics when the partition is down.
func (h *clusterHandle) Find(key uint64) (uint64, bool) {
	v, ok, err := h.TryFind(key)
	if err != nil {
		panic(fmt.Sprintf("cluster: Find: %v", err))
	}
	return v, ok
}

// Insert implements dict.Handle; panics on ambiguity or a downed
// partition (use TryInsert to own those outcomes).
func (h *clusterHandle) Insert(key, val uint64) (uint64, bool) {
	v, ok, err := h.TryInsert(key, val)
	if err != nil {
		panic(fmt.Sprintf("cluster: Insert: %v", err))
	}
	return v, ok
}

// Delete implements dict.Handle; panics on ambiguity or a downed
// partition (use TryDelete to own those outcomes).
func (h *clusterHandle) Delete(key uint64) (uint64, bool) {
	v, ok, err := h.TryDelete(key)
	if err != nil {
		panic(fmt.Sprintf("cluster: Delete: %v", err))
	}
	return v, ok
}

// Range concatenates per-partition scans in key order through each
// partition's primary. Weak only: no cross-partition (or even
// cross-leaf) atomicity, and no failover — a scan through a dying
// primary panics like the underlying client handle. Panics if the
// hosted structure cannot scan.
func (h *clusterHandle) Range(lo, hi uint64, fn func(k, v uint64) bool) {
	d := h.d
	stopped := false
	for i, p := range d.parts {
		plo, phi := max(lo, d.bounds.Low(i)), min(hi, d.bounds.High(i))
		if plo > phi {
			continue
		}
		s, err := h.sub(p.members[p.primary.Load()])
		if err != nil {
			panic(fmt.Sprintf("cluster: Range: partition %d: %v", i, err))
		}
		r, ok := s.(dict.Ranger)
		if !ok {
			panic("cluster: hosted structure does not support Range")
		}
		r.Range(plo, phi, func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}
