// Package batchkit holds the structure-independent staging machinery
// shared by every batched-point-operation implementation (core,
// pabtree, shard): the operation a batch applies, the staged-entry
// type, the stable sort that orders a batch for run formation, and the
// run-boundary scan. The tree packages deliberately do not depend on
// each other, so the one copy of this code lives below all of them.
package batchkit

// Op is the point operation a staged batch applies.
type Op uint8

const (
	Find Op = iota
	Insert
	Delete
)

// Ent is one key of an in-flight batched operation: the key and its
// index in the caller's slices (results — and, for inserts, the
// payload value — are reached through the index, keeping the sorted
// element at 16 bytes).
type Ent struct {
	K   uint64
	Idx int
}

// sortSmall is a stable insertion sort for small batches (strictly
// greater comparisons keep equal keys in input order).
func sortSmall(ents []Ent) {
	for i := 1; i < len(ents); i++ {
		e := ents[i]
		j := i - 1
		for j >= 0 && ents[j].K > e.K {
			ents[j+1] = ents[j]
			j--
		}
		ents[j+1] = e
	}
}

// radixCutoff is the batch size above which the LSD radix sort beats
// the insertion sort's O(n^2) comparisons.
const radixCutoff = 48

// Sort sorts the staged batch by key, stably — equal keys keep their
// input order, which is what makes batched results equal the per-key
// loop's. Hand-rolled because the sort is on every batch's critical
// path and a generic comparator sort profiles as a quarter of a batched
// find: the LSD radix sort does one stable counting pass per byte that
// actually varies across the batch (keys drawn from a bounded range
// share their high bytes, so most of the 8 passes skip), ping-ponging
// between ents and the caller's scratch buffer. It returns the sorted
// slice and the other buffer; callers persist both for reuse, since
// either buffer may end up holding the result.
func Sort(ents, scratch []Ent) (sorted, spare []Ent) {
	n := len(ents)
	if n <= radixCutoff {
		sortSmall(ents)
		return ents, scratch
	}
	// Bytes where every key agrees (orK and andK share the byte) cannot
	// reorder anything: skip their passes.
	orK, andK := uint64(0), ^uint64(0)
	for i := range ents {
		orK |= ents[i].K
		andK &= ents[i].K
	}
	if cap(scratch) < n {
		scratch = make([]Ent, n)
	}
	scratch = scratch[:n]
	a, b := ents, scratch
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(orK>>shift) == byte(andK>>shift) {
			continue
		}
		counts = [256]int{}
		for i := range a {
			counts[byte(a[i].K>>shift)]++
		}
		sum := 0
		for d := 0; d < 256; d++ {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		for i := range a {
			d := byte(a[i].K >> shift)
			b[counts[d]] = a[i]
			counts[d]++
		}
		a, b = b, a
	}
	return a, b
}

// RunEnd returns the end of the run starting at i: the first staged key
// at or above bound. It gallops from i, then bisects the last stride:
// one compare for a one-key run, O(log n) for a run of n keys.
func RunEnd(ents []Ent, i int, bound uint64) int {
	lo, hi := i+1, i+1 // ents[lo-1] is in the run; ents[hi] is the next probe
	for step := 1; hi < len(ents) && ents[hi].K < bound; step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(ents))
	for lo < hi { // the end is in [lo, hi]
		m := int(uint(lo+hi) >> 1)
		if ents[m].K < bound {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
