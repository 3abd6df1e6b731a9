package pabtree

// Layout and footprint guards for the persistent node and its volatile
// header (mirrors internal/core/layout_test.go): the word budgets as
// compile-time constants, the same-line property the one-flush insert
// rests on, and the bytes per key they buy.

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/pmem"
)

// A negative array length here fails the package's test build: the node
// is three whole cache lines, both node kinds fit it at the largest
// degree, and a volatile header is one cache line.
var (
	_ [NodeWords*8 - 192]byte
	_ [192 - NodeWords*8]byte
	_ [-(NodeWords % pmem.LineWords)]byte
	_ [NodeWords - (keysBase + (maxB - 1) + maxB)]byte // internal: meta, routing keys, children
	_ [NodeWords - (pairBase + 2*maxB)]byte            // leaf: meta, spare, pairs
	_ [64 - unsafe.Sizeof(vnode{})]byte
)

// TestPairSharesLine is the property persistPair's single flush depends
// on: a pair's key and value words are in one cache line, wherever the
// (line-aligned) node sits.
func TestPairSharesLine(t *testing.T) {
	for i := 0; i < maxB; i++ {
		k, v := leafKeyOff(0, i), leafValOff(0, i)
		if k/pmem.LineWords != v/pmem.LineWords {
			t.Errorf("pair %d: key word %d and value word %d are in different lines", i, k, v)
		}
		if v >= NodeWords {
			t.Errorf("pair %d: value word %d is outside the node", i, v)
		}
	}
	if childOff(0, maxB-1) >= NodeWords {
		t.Errorf("last child word %d is outside the node", childOff(0, maxB-1))
	}
}

// liveChunkBytes is the Go heap held by the tree's volatile headers.
func (t *Tree) liveChunkBytes() uint64 {
	var n uint64
	for i := range t.chunks {
		if t.chunks[i].Load() != nil {
			n += uint64(unsafe.Sizeof(vchunk{}))
		}
	}
	return n
}

// TestHeapBytesPerKey pins the footprint the layout exists for: uniform
// random inserts settle at ~69% leaf fill, so 192 B of arena per node
// plus a 64 B header per slot in use cost ~38 B per key (the 32-word
// stride with capacity-sized headers cost ~109 on a 16M-word arena), and
// an empty tree holds one header chunk, not the arena's worth.
func TestHeapBytesPerKey(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 100k-key tree and a 16M-word arena")
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	a := pmem.New(1 << 24)
	before := heap()
	empty := New(a)
	if got := heap() - before; got >= 1<<20 {
		t.Errorf("empty tree on a 1<<24-word arena holds %d B of Go heap besides the arena, want < 1 MiB", got)
	}
	runtime.KeepAlive(empty)

	const keys = 100_000
	tr := New(pmem.New(keys * NodeWords))
	th := tr.NewThread()
	rng := rand.New(rand.NewSource(1))
	for inserted := 0; inserted < keys; {
		if _, ok := th.Insert(1+rng.Uint64()%(1<<40), 1); ok {
			inserted++
		}
	}
	perKey := float64(8*tr.Arena().Allocated()+tr.liveChunkBytes()) / keys
	t.Logf("%.1f B/key (arena words in use + live header chunks), %+v", perKey, tr.Stats())
	if perKey > 45 {
		t.Errorf("%.1f B/key, want <= 45", perKey)
	}
}
