package main

// The ruler: everything the harness measures with is defined here and
// nowhere else — its random numbers, key distributions, op tapes, input
// hash, latency histogram and CPU accounting. None of it calls
// internal/bench, internal/zipfian, internal/xrand or internal/metrics,
// so a change that speeds those packages up cannot move the ruler.

import (
	"math"
	"math/bits"
	"sort"
	"syscall"
	"time"
)

// rng is splitmix64: tiny, seedable, and good enough for workload
// generation. The zero seed is fine.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uintn returns a value in [0, n) by multiply-high; the bias is below
// n/2^64 and irrelevant at benchmark key ranges.
func (r *rng) uintn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [1, n] with P(k) proportional to 1/k (s = 1, the
// paper's skewed setting) by inverting an exact cumulative table.
type zipf struct{ cdf []float64 }

func newZipf(n uint64) *zipf {
	cdf := make([]float64, n)
	var h float64
	for k := range cdf {
		h += 1 / float64(k+1)
		cdf[k] = h
	}
	for k := range cdf {
		cdf[k] /= h
	}
	cdf[n-1] = 1
	return &zipf{cdf}
}

func (z *zipf) rank(r *rng) uint64 {
	return 1 + uint64(sort.SearchFloat64s(z.cdf, r.float()))
}

// Tape entries pack one generated operation into a word:
// op in bits 56..63, scan length in bits 40..47, key in bits 0..39.
const (
	opFind = iota
	opInsert
	opDelete
	opScan
)

const (
	tapeLen  = 1 << 20
	tapeMask = tapeLen - 1
	keyBits  = 40
	keyMask  = 1<<keyBits - 1
)

func entry(op int, key, scanLen uint64) uint64 {
	return uint64(op)<<56 | scanLen<<keyBits | key
}

func entryOp(e uint64) int     { return int(e >> 56) }
func entryKey(e uint64) uint64 { return e & keyMask }
func entryLen(e uint64) uint64 { return e >> keyBits & 0xFF }

// Key distributions a mix can draw from.
const (
	distUniform = iota
	distZipf    // rank k is key k: the hot set is one corner of the tree
	distZipfMix // ranks scattered over the key range by a fixed bijection
)

// scatterMul is coprime to every key range used (odd, not a multiple
// of 5), so rank -> 1 + (rank-1)*scatterMul mod n is a bijection.
const scatterMul = 611953

// mix is the generated-input description of one workload. Shares are
// in per mille of operations; block > 1 draws one op kind per block of
// that many keys (batched workloads).
type mix struct {
	keyRange          uint64
	find, insert, del int // per mille; the remainder is scans
	dist              int
	maxScan           uint64
	block             int
}

// fillTape generates one client's tape.
func (m mix) fillTape(r *rng, z *zipf, tape []uint64) {
	block := m.block
	if block < 1 {
		block = 1
	}
	op := 0
	for i := range tape {
		if i%block == 0 {
			switch p := int(r.uintn(1000)); {
			case p < m.find:
				op = opFind
			case p < m.find+m.insert:
				op = opInsert
			case p < m.find+m.insert+m.del:
				op = opDelete
			default:
				op = opScan
			}
		}
		var key uint64
		switch m.dist {
		case distUniform:
			key = 1 + r.uintn(m.keyRange)
		case distZipf:
			key = z.rank(r)
		case distZipfMix:
			key = 1 + (z.rank(r)-1)*scatterMul%m.keyRange
		}
		var n uint64
		if op == opScan {
			n = 1 + r.uintn(m.maxScan)
		}
		tape[i] = entry(op, key, n)
	}
}

// prefillKeys returns keyRange/2 distinct uniform keys, the steady
// state of a balanced insert/delete mix.
func prefillKeys(r *rng, keyRange uint64) []uint64 {
	seen := make([]uint64, (keyRange+64)/64)
	keys := make([]uint64, 0, keyRange/2)
	for uint64(len(keys)) < keyRange/2 {
		k := 1 + r.uintn(keyRange)
		if seen[k/64]&(1<<(k%64)) == 0 {
			seen[k/64] |= 1 << (k % 64)
			keys = append(keys, k)
		}
	}
	return keys
}

// inputs is everything generated from -seed for one workload.
type inputs struct {
	seed       uint64
	keyRange   uint64
	block      int // keys per call; 1 for per-key workloads
	prefill    []uint64
	prefillSum uint64
	tapes      [][]uint64
	hash       uint64 // FNV-1a over prefill and tapes
}

func fnv1a(h uint64, words []uint64) uint64 {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h = (h ^ (w & 0xFF)) * 0x100000001B3
			w >>= 8
		}
	}
	return h
}

func nameSeed(name string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001B3
	}
	return h
}

// generate builds the inputs of workload name for the given seed:
// same name, seed and client count give the same inputs.
func generate(name string, m mix, seed uint64, clients int) *inputs {
	base := rng{s: seed*0x9E3779B97F4A7C15 ^ nameSeed(name)}
	in := &inputs{seed: seed, keyRange: m.keyRange, block: m.block, hash: 0xCBF29CE484222325}
	pr := rng{s: base.next()}
	in.prefill = prefillKeys(&pr, m.keyRange)
	for _, k := range in.prefill {
		in.prefillSum += k
	}
	in.hash = fnv1a(in.hash, in.prefill)
	var z *zipf
	if m.dist != distUniform {
		z = newZipf(m.keyRange)
	}
	for c := 0; c < clients; c++ {
		tr := rng{s: base.next()}
		tape := make([]uint64, tapeLen)
		m.fillTape(&tr, z, tape)
		in.tapes = append(in.tapes, tape)
		in.hash = fnv1a(in.hash, tape)
	}
	return in
}

// hist is the harness's latency histogram: exact below 256 ns, then
// 128 buckets per octave (under 0.8 % wide) up to 2^40 ns. Quantiles
// interpolate inside a bucket, so they move continuously.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const histBuckets = 34 * 128

func bucketOf(v uint64) int {
	if v < 256 {
		return int(v)
	}
	if v >= 1<<40 {
		v = 1<<40 - 1
	}
	e := bits.Len64(v) - 8
	return e<<7 + int(v>>uint(e))
}

// bucketSpan returns the lowest value of bucket i and its width.
func bucketSpan(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	e := uint(i>>7 - 1)
	return float64(uint64(i&127+128) << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds (NaN when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketSpan(i)
			return lo + w*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketSpan(histBuckets - 1)
	return lo + w
}

// usage is one getrusage reading of this process.
type usage struct {
	cpu  time.Duration // user + system
	ctxs int64         // voluntary + involuntary context switches
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxs: int64(ru.Nvcsw + ru.Nivcsw),
	}
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile of xs
// as a share of their median: the benchmark's own noise figure, taken
// the way BENCHMARK.json's bounds are applied across runs (quartiles as
// Python's statistics.quantiles(xs, n=4) computes them).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)-j*4) / 4 // outside [0, 1] it extrapolates, as Python does
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	if m := median(xs); m != 0 {
		return (quartile(3) - quartile(1)) / m
	}
	return 0
}
