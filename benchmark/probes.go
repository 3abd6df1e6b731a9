package main

// Probes: one goroutine timing one layer's public calls in isolation,
// on structures built the same way every time. They say what a layer
// costs on its own; the workloads say what that cost is worth end to
// end. Counts taken here (bytes per round trip, flushes per update)
// repeat exactly from run to run; times are medians of five windows.

import (
	"time"

	"repro/internal/batchkit"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rq"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/treedict"
	"repro/internal/wire"
)

// probeWindow is the length of one of a probe's five timed windows.
var probeWindow = 40 * time.Millisecond

// probeSeed fixes the probes' inputs: they do not depend on -seed, so
// a probe number moves only when the layer does.
const probeSeed = 0x1ED6E4

const probeRange = 1e6

// sink keeps probe results alive so the calls are not optimised away.
var sink uint64

// timeProbe calls fn, which reports how many units it did, back to back
// for five windows and returns the median nanoseconds per unit.
func timeProbe(fn func() int) float64 {
	var per []float64
	for w := 0; w < 5; w++ {
		units := 0
		t0 := time.Now()
		for time.Since(t0) < probeWindow {
			units += fn()
		}
		per = append(per, float64(time.Since(t0))/float64(units))
	}
	return median(per)
}

// probeKeys is a cyclic supply of uniform keys handed out in chunks.
type probeKeys struct {
	keys []uint64
	pos  int
}

func newProbeKeys(r *rng) *probeKeys {
	p := &probeKeys{keys: make([]uint64, 1<<16)}
	for i := range p.keys {
		p.keys[i] = 1 + r.uintn(probeRange)
	}
	return p
}

func (p *probeKeys) chunk(n int) []uint64 {
	if p.pos+n > len(p.keys) {
		p.pos = 0
	}
	p.pos += n
	return p.keys[p.pos-n : p.pos]
}

// fillOrdered inserts keys through one handle, in order, so the
// structure comes out identical every time.
func fillOrdered(h dict.Handle, keys []uint64) {
	for _, k := range keys {
		h.Insert(k, k)
	}
}

// pointProbes times per-key finds and balanced updates on h.
func pointProbes(h dict.Handle, pk *probeKeys) (findNs, updateNs float64) {
	findNs = timeProbe(func() int {
		for _, k := range pk.chunk(1024) {
			v, _ := h.Find(k)
			sink += v
		}
		return 1024
	})
	updateNs = timeProbe(func() int {
		for i, k := range pk.chunk(1024) {
			if i%2 == 0 {
				h.Insert(k, k)
			} else {
				h.Delete(k)
			}
		}
		return 1024
	})
	return
}

// batchFindProbe times 64-key batched finds, per key.
func batchFindProbe(b dict.Batcher, pk *probeKeys) float64 {
	vals, flags := make([]uint64, batchLen), make([]bool, batchLen)
	return timeProbe(func() int {
		b.FindBatch(pk.chunk(batchLen), vals, flags)
		return batchLen
	})
}

// batchUpdateProbe times balanced 64-key batched updates, per key.
func batchUpdateProbe(b dict.Batcher, pk *probeKeys) float64 {
	vals, flags := make([]uint64, batchLen), make([]bool, batchLen)
	insert := false
	return timeProbe(func() int {
		keys := pk.chunk(batchLen)
		if insert = !insert; insert {
			b.InsertBatch(keys, keys, vals, flags)
		} else {
			b.DeleteBatch(keys, vals, flags)
		}
		return batchLen
	})
}

// scanProbe times quiescent 100-key snapshot scans, per pair returned.
func scanProbe(s dict.SnapshotRanger, pk *probeKeys) float64 {
	pairs := 0
	visit := func(k, v uint64) bool { pairs++; return true }
	return timeProbe(func() int {
		pairs = 0
		for _, k := range pk.chunk(16) {
			s.RangeSnapshot(k, k+99, visit)
		}
		return pairs + 1 // never zero, even if every range was empty
	})
}

// runProbes measures every probe metric.
func runProbes() map[string]metric {
	out := map[string]metric{}
	ns := func(name string, v float64) { out[name] = metric{v, nan, "ns"} }
	r := rng{s: probeSeed}
	fill := prefillKeys(&r, probeRange)
	pk := newProbeKeys(&r)

	// core: one 10^6-key-range OCC-ABtree.
	ct := core.New()
	cth := ct.NewThread()
	fillOrdered(cth, fill)
	find, update := pointProbes(cth, pk)
	ns("core.find_ns", find)
	ns("core.update_ns", update)
	ns("core.batch64_find_ns_per_key", batchFindProbe(cth, pk))
	ns("core.batch64_update_ns_per_key", batchUpdateProbe(cth, pk))
	ns("core.scan100_ns_per_pair", scanProbe(cth, pk))

	// pabtree and pmem. The counted loop runs first, on the freshly
	// built tree, so its flush and fence counts repeat exactly.
	arena := pmem.New(arenaWords)
	pt := pabtree.New(arena)
	pth := pt.NewThread()
	fillOrdered(pth, fill)
	before := arena.Stats()
	landed := 0
	for i, k := range pk.keys {
		ok := false
		if i%2 == 0 {
			_, ok = pth.Insert(k, k)
		} else {
			_, ok = pth.Delete(k)
		}
		if ok {
			landed++
		}
	}
	after := arena.Stats()
	out["pmem.flushes_per_update"] = metric{float64(after.Flushes-before.Flushes) / float64(landed), nan, "count"}
	out["pmem.fences_per_update"] = metric{float64(after.Fences-before.Fences) / float64(landed), nan, "count"}
	find, update = pointProbes(pth, pk)
	ns("pabtree.find_ns", find)
	ns("pabtree.update_ns", update)
	line := pmem.New(1 << 16)
	off := uint64(0)
	ns("pmem.flush_ns", timeProbe(func() int {
		for i := 0; i < 1024; i++ {
			off = (off + pmem.LineWords) & (1<<16 - 1)
			line.Store(off, off)
			line.Flush(off)
		}
		return 1024
	}))

	// rq: drawing and retiring a scan timestamp.
	sc := rq.NewClock().Register()
	ns("rq.begin_end_ns", timeProbe(func() int {
		for i := 0; i < 1024; i++ {
			sink += sc.Begin()
			sc.End()
		}
		return 1024
	}))

	// shard: the same keys through the partition's handle and straight
	// to the shard that owns them; the difference is the routing.
	const shards = 8
	var inner [shards]*core.Thread
	sd := shard.New(shards, probeRange, func(i int, c *rq.Clock) dict.Dict {
		t := core.New(core.WithRQClock(c))
		inner[i] = t.NewThread()
		return treedict.Core{T: t}
	})
	sh := sd.NewHandle()
	fillOrdered(sh, fill)
	owner := func(k uint64) int {
		if i := int((k - 1) / (probeRange / shards)); i < shards {
			return i
		}
		return shards - 1
	}
	// The two loops take turns, on fresh keys each, so a slow stretch of
	// the machine slows both sides of the difference.
	var routed, direct time.Duration
	finds := 0
	timeProbe(func() int {
		t0 := time.Now()
		for _, k := range pk.chunk(1024) {
			v, _ := sh.Find(k)
			sink += v
		}
		t1 := time.Now()
		for _, k := range pk.chunk(1024) {
			v, _ := inner[owner(k)].Find(k)
			sink += v
		}
		routed += t1.Sub(t0)
		direct += time.Since(t1)
		finds += 1024
		return 2048
	})
	ns("shard.route_ns", float64(routed-direct)/float64(finds))
	ns("shard.batch64_ns_per_key", batchFindProbe(sh.(dict.Batcher), pk))
	ns("shard.scan100_ns_per_pair", scanProbe(sh.(dict.SnapshotRanger), pk))

	// batchkit: the sort every batch starts with.
	sortProbe := func(n int) float64 {
		ents, scratch := make([]batchkit.Ent, n), make([]batchkit.Ent, n)
		return timeProbe(func() int {
			for i, k := range pk.chunk(n) {
				ents[i] = batchkit.Ent{K: k, Idx: i}
			}
			ents, scratch = batchkit.Sort(ents, scratch)
			return n
		})
	}
	ns("batchkit.sort64_ns_per_key", sortProbe(64))
	ns("batchkit.sort512_ns_per_key", sortProbe(512))

	// wire: append a frame and decode it again, both directions.
	var buf []byte
	var req wire.Request
	ns("wire.point_req_ns", timeProbe(func() int {
		for i, k := range pk.chunk(1024) {
			op := byte(wire.OpGet)
			if i%2 == 1 {
				op = wire.OpPut
			}
			buf = wire.AppendPoint(buf[:0], uint64(i), op, k, k)
			if wire.DecodeRequest(uint64(i), op, buf[wire.HeaderLen:], &req) != nil {
				panic("wire probe: request does not decode")
			}
			sink += req.Key
		}
		return 1024
	}))
	ns("wire.point_resp_ns", timeProbe(func() int {
		for i, k := range pk.chunk(1024) {
			buf = wire.AppendRespPoint(buf[:0], uint64(i), k, true)
			v, _, _, err := wire.DecodePoint(buf[wire.HeaderLen:])
			if err != nil {
				panic("wire probe: response does not decode")
			}
			sink += v
		}
		return 1024
	}))
	vals, flags := make([]uint64, batchLen), make([]bool, batchLen)
	ns("wire.batch64_req_ns_per_key", timeProbe(func() int {
		keys := pk.chunk(batchLen)
		buf = wire.AppendBatch(buf[:0], 1, wire.OpMPut, keys, keys)
		if wire.DecodeRequest(1, wire.OpMPut, buf[wire.HeaderLen:], &req) != nil {
			panic("wire probe: batch request does not decode")
		}
		return batchLen
	}))
	ns("wire.batch64_resp_ns_per_key", timeProbe(func() int {
		buf = wire.AppendRespBatch(buf[:0], 1, pk.chunk(batchLen), flags)
		if _, err := wire.DecodeBatch(buf[wire.HeaderLen:], vals, flags); err != nil {
			panic("wire probe: batch response does not decode")
		}
		return batchLen
	}))
	rtt := len(wire.AppendPoint(nil, 1, wire.OpGet, 1, 0)) + len(wire.AppendRespPoint(nil, 1, 1, true))
	out["wire.point_rtt_bytes"] = metric{float64(rtt), nan, "B"}

	// metrics and trace: what one record costs the layer that makes it.
	var h metrics.Histogram
	ns("metrics.hist_record_ns", timeProbe(func() int {
		for _, k := range pk.chunk(1024) {
			h.Record(0, k)
		}
		return 1024
	}))
	col := trace.New()
	ns("trace.record_ns", timeProbe(func() int {
		for _, k := range pk.chunk(1024) {
			col.Record(0, trace.Span{TraceID: k, Kind: trace.KindService, Start: k, Dur: k})
		}
		return 1024
	}))
	return out
}
