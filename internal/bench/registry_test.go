package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dict"
	"repro/internal/pabtree"
	"repro/internal/xrand"
)

// TestRegistrySmoke asserts that every registered name constructs a
// working dictionary: one insert/find/delete round trip plus KeySum.
// Because Names and NewDict derive from the same table, a name cannot
// drift into one without the other.
func TestRegistrySmoke(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			d := NewDict(name, 1024)
			h := d.NewHandle()
			if _, ins := h.Insert(7, 70); !ins {
				t.Fatal("fresh insert reported duplicate")
			}
			if v, ok := h.Find(7); !ok || v != 70 {
				t.Fatalf("Find = (%d, %v), want (70, true)", v, ok)
			}
			if s := d.KeySum(); s != 7 {
				t.Fatalf("KeySum = %d, want 7", s)
			}
			if v, ok := h.Delete(7); !ok || v != 70 {
				t.Fatalf("Delete = (%d, %v), want (70, true)", v, ok)
			}
			if _, ok := h.Find(7); ok {
				t.Fatal("Find after Delete")
			}
		})
	}
}

// TestCuratedSetsRegistered asserts the figure sets only name registered
// structures.
func TestCuratedSetsRegistered(t *testing.T) {
	known := make(map[string]bool)
	for _, n := range Names() {
		known[n] = true
	}
	for _, set := range [][]string{VolatileStructures, PersistentStructures, ScanStructures, RangeStructures, ShardStructures} {
		for _, n := range set {
			if !known[n] {
				t.Errorf("curated set names unregistered structure %q", n)
			}
		}
	}
}

// TestScanStructuresScan asserts every ScanStructures member actually
// implements both scan interfaces and serves a snapshot scan, and every
// RangeStructures member serves at least a weak scan.
func TestScanStructuresScan(t *testing.T) {
	scanKinds := func(name string) (snapshot bool) {
		for _, n := range ScanStructures {
			if n == name {
				return true
			}
		}
		return false
	}
	for _, name := range RangeStructures {
		d := NewDict(name, 1024)
		h := d.NewHandle()
		for k := uint64(1); k <= 50; k++ {
			h.Insert(k, k)
		}
		kinds := []bool{false}
		if scanKinds(name) {
			kinds = append(kinds, true)
		}
		for _, snapshot := range kinds {
			scan := dict.ScanFunc(h, snapshot)
			if scan == nil {
				t.Fatalf("%s: no scan support (snapshot=%v)", name, snapshot)
			}
			n := 0
			scan(10, 19, func(k, v uint64) bool { n++; return true })
			if n != 10 {
				t.Fatalf("%s: scan saw %d keys, want 10 (snapshot=%v)", name, n, snapshot)
			}
		}
	}
}

// TestShardedRegistrySmoke drives every shard* registry entry with a
// mixed concurrent op batch spanning all shard boundaries and
// cross-checks the final KeySum against a per-worker running sum — the
// CI sharded smoke step runs exactly this test under -race.
func TestShardedRegistrySmoke(t *testing.T) {
	const keyRange = 4096
	for _, name := range Names() {
		if !strings.HasPrefix(name, "shard") {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			d := NewDict(name, keyRange)
			cfg := Config{
				Threads:  4,
				KeyRange: keyRange,
				// 60% updates so every shard sees insert/delete churn;
				// the rest finds (plus scans for the scan-capable).
				UpdatePct: 60,
				Duration:  50_000_000, // 50ms
				Seed:      42,
			}
			if dict.ScanFunc(d.NewHandle(), false) != nil {
				cfg.ScanPct = 10
				cfg.ScanLen = 64
			}
			Prefill(d, cfg)
			// Run performs the KeySum cross-check (key-sum validation)
			// at the end of the measured phase.
			if _, err := Run(d, cfg); err != nil {
				t.Fatal(err)
			}
			// A follow-up deterministic batch exercises routing at the
			// exact shard boundaries.
			h := d.NewHandle()
			rng := xrand.New(7)
			before := d.KeySum()
			var delta uint64
			for i := 0; i < 2000; i++ {
				k := 1 + rng.Uint64n(keyRange*2) // past keyRange: last shard
				if rng.Uint64n(2) == 0 {
					if _, ok := h.Insert(k, k); ok {
						delta += k
					}
				} else {
					if _, ok := h.Delete(k); ok {
						delta -= k
					}
				}
			}
			if got, want := d.KeySum(), before+delta; got != want {
				t.Fatalf("KeySum after boundary batch = %d, want %d", got, want)
			}
		})
	}
}

// TestArenaWordsNoOverflow guards the uint64 -> int conversion: huge key
// ranges must clamp, not overflow into a negative or truncated size.
func TestArenaWordsNoOverflow(t *testing.T) {
	for _, kr := range []uint64{0, 1, 1 << 16, 1 << 30, 1 << 40, 1 << 62, math.MaxUint64} {
		w := arenaWords(kr, pabtree.NodeWords)
		if w <= 0 {
			t.Fatalf("arenaWords(%d) = %d, want positive", kr, w)
		}
		if uint64(w) > maxArenaWords {
			t.Fatalf("arenaWords(%d) = %d exceeds the clamp", kr, w)
		}
	}
	if w := arenaWords(1<<10, pabtree.NodeWords); uint64(w) != uint64(1<<16*pabtree.NodeWords) {
		t.Fatalf("small key range sized %d words, want %d", w, 1<<16*pabtree.NodeWords)
	}
}
