// Package bench is the SetBench analogue: the microbenchmark harness the
// paper's §6 evaluation is built on. It prefetches a data structure to
// its steady-state size, drives it with a configurable operation mix and
// key distribution from n worker threads for a fixed duration, validates
// the result with the paper's key-sum scheme, and reports throughput.
//
// The harness is written entirely against internal/dict's canonical
// Dict/Handle interfaces; this package's registry (registry.go) adapts
// every concrete structure — including internal/shard's partitioned
// compositions — to them.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dict"
	"repro/internal/metrics"
	"repro/internal/treedict"
	"repro/internal/xrand"
	"repro/internal/zipfian"
)

// batchWorker is one worker's batched-mode plumbing (Config.Batch > 1):
// the structure's Batcher — native, or treedict's per-key fallback — and
// the key/result scratch reused across iterations. Point-op classes are
// drawn per batch; every key of a batch counts as one op. Scans are
// unaffected by batching.
type batchWorker struct {
	b    dict.Batcher
	keys []uint64
	vals []uint64
	res  []uint64
	ok   []bool
}

func newBatchWorker(h dict.Handle, n int) *batchWorker {
	return &batchWorker{
		b:    treedict.BatcherFor(h),
		keys: make([]uint64, n),
		vals: make([]uint64, n),
		res:  make([]uint64, n),
		ok:   make([]bool, n),
	}
}

func (w *batchWorker) draw(z *zipfian.Zipf) {
	for i := range w.keys {
		w.keys[i] = z.Next()
	}
}

// insertBatch inserts a fresh batch of keys (value = key), returning
// the key-sum delta of the inserts that landed.
func (w *batchWorker) insertBatch(z *zipfian.Zipf) int64 {
	w.draw(z)
	for i, k := range w.keys {
		w.vals[i] = k
	}
	w.b.InsertBatch(w.keys, w.vals, w.res, w.ok)
	var sum int64
	for i, k := range w.keys {
		if w.ok[i] {
			sum += int64(k)
		}
	}
	return sum
}

// deleteBatch deletes a fresh batch of keys, returning the key-sum
// delta of the deletes that landed.
func (w *batchWorker) deleteBatch(z *zipfian.Zipf) int64 {
	w.draw(z)
	w.b.DeleteBatch(w.keys, w.res, w.ok)
	var sum int64
	for i, k := range w.keys {
		if w.ok[i] {
			sum -= int64(k)
		}
	}
	return sum
}

func (w *batchWorker) findBatch(z *zipfian.Zipf) {
	w.draw(z)
	w.b.FindBatch(w.keys, w.res, w.ok)
}

// Config describes one experiment cell.
type Config struct {
	Threads   int
	KeyRange  uint64
	UpdatePct int     // percentage of ops that are updates (half ins, half del)
	ScanPct   int     // percentage of ops that are range scans (taken from the read share)
	ScanLen   uint64  // keys per scan interval (default 100 when ScanPct > 0)
	SnapScans bool    // scans use the linearizable RangeSnapshot instead of Range
	ZipfS     float64 // 0 = uniform, 1 = paper's skewed setting
	Batch     int     // point ops issued as sorted-run batches of this size (<=1: per-key)
	Duration  time.Duration
	Seed      uint64
	NoValid   bool // skip key-sum validation (used by Table 1 overhead runs)
	// LatEvery samples whole-call latency on every Nth operation of each
	// worker, uniformly across op kinds (0 disables). Sampling keeps the
	// clock-read overhead (~2 time.Now per sample) off most iterations so
	// throughput figures stay honest; a batched call counts as one sample
	// covering the whole batch.
	LatEvery int
}

// Result is one experiment cell's outcome.
type Result struct {
	Config
	Ops        uint64
	ScanPairs  uint64 // pairs reported by range scans
	Elapsed    time.Duration
	OpsPerUsec float64
	// Lat holds the sampled whole-call latency distribution when
	// Config.LatEvery > 0 (nil otherwise). Quantiles are in nanoseconds.
	Lat *metrics.Snapshot
}

// LatPcts returns the sampled p50/p99/p999 in microseconds, or zeros if
// latency sampling was off.
func (r *Result) LatPcts() (p50, p99, p999 float64) {
	return LatUs(r.Lat)
}

// LatUs extracts p50/p99/p999 from a latency snapshot in microseconds
// (zeros for nil or empty) — the unit the TSV/JSON outputs use.
func LatUs(s *metrics.Snapshot) (p50, p99, p999 float64) {
	if s == nil || s.Count == 0 {
		return 0, 0, 0
	}
	const us = 1e3
	return float64(s.Quantile(0.50)) / us, float64(s.Quantile(0.99)) / us, float64(s.Quantile(0.999)) / us
}

// Prefill inserts uniformly random keys from [1, cfg.KeyRange] until the
// structure holds KeyRange/2 keys — the expected steady-state size when
// inserts and deletes are balanced (paper §6 "Methodology"). It uses all
// available cores, and while the structure is far from the target it
// issues the inserts as InsertBatch batches (native descent sharing
// where available, and — crucially for remote dictionaries — one wire
// round trip per batch instead of per key); the tail falls back to
// per-key inserts. Either way a worker claims its slots in the shared
// count before inserting and returns the duplicates' afterwards, so
// concurrent workers stop at exactly the target.
//
// Prefill counts successful inserts, so it assumes a structure that
// starts (near-)empty; on one that is already near keyRange keys, new
// successes stop arriving and the success-count loop could spin
// forever (re-prefilling a reused remote dictionary is exactly that
// case). Total attempts are therefore capped at ~8x keyRange — a fresh
// structure needs only ~0.7x keyRange attempts to reach the target, so
// the cap never fires on the intended path, and a saturated structure
// makes Prefill return instead of hang.
func Prefill(d dict.Dict, cfg Config) {
	const prefillBatch = 128
	target := cfg.KeyRange / 2
	maxAttempts := 8 * cfg.KeyRange
	if maxAttempts < 1<<16 {
		maxAttempts = 1 << 16
	}
	workers := runtime.GOMAXPROCS(0)
	if uint64(workers) > target && target > 0 {
		workers = int(target)
	}
	if workers < 1 {
		workers = 1
	}
	var inserted, attempts atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.NewHandle()
			bt := treedict.BatcherFor(h)
			var keys, prev [prefillBatch]uint64
			var ok [prefillBatch]bool
			rng := xrand.New(cfg.Seed*2654435761 + uint64(w) + 1)
			for {
				done := inserted.Load()
				if done >= target || attempts.Load() >= maxAttempts {
					return
				}
				// Claim the slots in the count before inserting and return
				// the duplicates' afterwards: a worker stalled between its
				// read of the count and its insert must not land on top of
				// a target the others have meanwhile reached.
				n := uint64(1)
				if target-done > uint64(workers)*prefillBatch {
					n = prefillBatch
				}
				if inserted.Add(n) > target {
					inserted.Add(-n)
					continue
				}
				landed := uint64(0)
				if n == 1 {
					k := 1 + rng.Uint64n(cfg.KeyRange)
					if _, hit := h.Insert(k, k); hit {
						landed = 1
					}
				} else {
					for i := range keys {
						keys[i] = 1 + rng.Uint64n(cfg.KeyRange)
					}
					bt.InsertBatch(keys[:], keys[:], prev[:], ok[:])
					for _, hit := range ok {
						if hit {
							landed++
						}
					}
				}
				inserted.Add(landed - n)
				attempts.Add(n)
			}
		}(w)
	}
	wg.Wait()
}

// Run drives the measured phase: cfg.Threads workers each repeatedly pick
// an operation by the update mix and a key by the Zipf(s) distribution
// over [1, KeyRange], for cfg.Duration. It returns throughput and
// validates the key-sum unless cfg.NoValid.
func Run(d dict.Dict, cfg Config) (Result, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.ScanPct > 0 {
		if cfg.UpdatePct+cfg.ScanPct > 100 {
			return Result{Config: cfg}, fmt.Errorf("bench: update%%+scan%% = %d exceeds 100", cfg.UpdatePct+cfg.ScanPct)
		}
		if cfg.ScanLen == 0 {
			cfg.ScanLen = 100
		}
		if dict.ScanFunc(d.NewHandle(), cfg.SnapScans) == nil {
			return Result{Config: cfg}, fmt.Errorf("bench: structure does not support %s scans", scanKind(cfg.SnapScans))
		}
	}
	var baseline uint64
	if !cfg.NoValid {
		baseline = d.KeySum() // quiescent pre-run sum (the prefill keys)
	}
	sums := make([]int64, cfg.Threads)
	counts := make([]uint64, cfg.Threads)
	pairs := make([]uint64, cfg.Threads)
	var lat *metrics.Histogram
	if cfg.LatEvery > 0 {
		lat = new(metrics.Histogram)
	}
	var stop atomic.Bool
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < cfg.Threads; w++ {
		ready.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.NewHandle()
			scan := dict.ScanFunc(h, cfg.SnapScans)
			var bw *batchWorker
			if cfg.Batch > 1 {
				bw = newBatchWorker(h, cfg.Batch)
			}
			rng := xrand.New(cfg.Seed*7919 + uint64(w)*104729 + 3)
			z := zipfian.New(xrand.New(cfg.Seed*31+uint64(w)*17+7), cfg.KeyRange, cfg.ZipfS)
			ready.Done()
			<-start
			var sum int64
			var ops, scanned, tick uint64
			var t0 time.Time
			for !stop.Load() {
				// Deterministic 1-in-LatEvery sampling, uniform across op
				// kinds: the tick advances per call, so batch and scan
				// calls are sampled at the same rate as point ops.
				tick++
				timed := lat != nil && tick%uint64(cfg.LatEvery) == 0
				if timed {
					t0 = time.Now()
				}
				if bw != nil {
					switch r := int(rng.Uint64n(200)); {
					case r < cfg.UpdatePct:
						sum += bw.insertBatch(z)
						ops += uint64(cfg.Batch)
					case r < 2*cfg.UpdatePct:
						sum += bw.deleteBatch(z)
						ops += uint64(cfg.Batch)
					case r < 2*(cfg.UpdatePct+cfg.ScanPct):
						k := z.Next()
						scan(k, k+cfg.ScanLen-1, func(_, _ uint64) bool {
							scanned++
							return true
						})
						ops++
					default:
						bw.findBatch(z)
						ops += uint64(cfg.Batch)
					}
				} else {
					k := z.Next()
					switch r := int(rng.Uint64n(200)); {
					case r < cfg.UpdatePct:
						if _, ok := h.Insert(k, k); ok {
							sum += int64(k)
						}
					case r < 2*cfg.UpdatePct:
						if _, ok := h.Delete(k); ok {
							sum -= int64(k)
						}
					case r < 2*(cfg.UpdatePct+cfg.ScanPct):
						scan(k, k+cfg.ScanLen-1, func(_, _ uint64) bool {
							scanned++
							return true
						})
					default:
						h.Find(k)
					}
					ops++
				}
				if timed {
					lat.Record(w, uint64(time.Since(t0)))
				}
			}
			sums[w] = sum
			counts[w] = ops
			pairs[w] = scanned
		}(w)
	}
	ready.Wait()
	began := time.Now()
	close(start)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(began)

	res := Result{Config: cfg, Elapsed: elapsed}
	var total int64
	for w := 0; w < cfg.Threads; w++ {
		res.Ops += counts[w]
		res.ScanPairs += pairs[w]
		total += sums[w]
	}
	res.OpsPerUsec = float64(res.Ops) / float64(elapsed.Microseconds())
	if lat != nil {
		res.Lat = new(metrics.Snapshot)
		lat.Snapshot(res.Lat)
	}

	if !cfg.NoValid {
		want := baseline + uint64(total) // wrapping arithmetic matches KeySum
		if got := d.KeySum(); got != want {
			return res, fmt.Errorf("key-sum validation failed: structure=%d, want %d", got, want)
		}
	}
	return res, nil
}

// RunOps is a fixed-op-count variant used by testing.B benchmarks: each
// of cfg.Threads workers performs opsPerThread operations; the caller
// times it.
func RunOps(d dict.Dict, cfg Config, opsPerThread int) {
	if cfg.ScanPct > 0 && cfg.ScanLen == 0 {
		cfg.ScanLen = 100
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.NewHandle()
			scan := dict.ScanFunc(h, cfg.SnapScans)
			var bw *batchWorker
			if cfg.Batch > 1 {
				bw = newBatchWorker(h, cfg.Batch)
			}
			rng := xrand.New(cfg.Seed*7919 + uint64(w)*104729 + 3)
			z := zipfian.New(xrand.New(cfg.Seed*31+uint64(w)*17+7), cfg.KeyRange, cfg.ZipfS)
			for i := 0; i < opsPerThread; i++ {
				if bw != nil {
					switch r := int(rng.Uint64n(200)); {
					case r < cfg.UpdatePct:
						bw.insertBatch(z)
					case r < 2*cfg.UpdatePct:
						bw.deleteBatch(z)
					case r < 2*(cfg.UpdatePct+cfg.ScanPct) && scan != nil:
						k := z.Next()
						scan(k, k+cfg.ScanLen-1, func(_, _ uint64) bool { return true })
					default:
						bw.findBatch(z)
					}
					continue
				}
				k := z.Next()
				switch r := int(rng.Uint64n(200)); {
				case r < cfg.UpdatePct:
					h.Insert(k, k)
				case r < 2*cfg.UpdatePct:
					h.Delete(k)
				case r < 2*(cfg.UpdatePct+cfg.ScanPct) && scan != nil:
					scan(k, k+cfg.ScanLen-1, func(_, _ uint64) bool { return true })
				default:
					h.Find(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func scanKind(snapshot bool) string {
	if snapshot {
		return "snapshot (RangeSnapshot)"
	}
	return "weak (Range)"
}
