package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bcco10"
	"repro/internal/bwtree"
	"repro/internal/catree"
	"repro/internal/cbtree"
	"repro/internal/cist"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/efrbbst"
	"repro/internal/extbst"
	"repro/internal/fptree"
	"repro/internal/lfabtree"
	"repro/internal/olcart"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rntree"
	"repro/internal/rq"
	"repro/internal/shard"
	"repro/internal/splaylist"
	"repro/internal/treedict"
)

// The ABtrees are adapted by internal/treedict (coreDict/pabDict are
// aliases so the registry table reads compactly); selfDict below covers
// the structures whose methods are directly concurrent-safe.

type coreDict = treedict.Core
type pabDict = treedict.Pab

// selfDict adapts structures whose methods are directly concurrent-safe
// (no per-thread handle state).
type selfHandle interface {
	Find(key uint64) (uint64, bool)
	Insert(key, val uint64) (uint64, bool)
	Delete(key uint64) (uint64, bool)
	KeySum() uint64
}

type selfDict struct{ h selfHandle }

func (d selfDict) NewHandle() dict.Handle { return d.h }
func (d selfDict) KeySum() uint64         { return d.h.KeySum() }

// maxArenaWords caps simulated PM arenas at 1<<34 words (128 GiB): big
// enough for any benchmarkable key range, small enough that the
// uint64 -> int conversion below can never overflow or go negative.
const maxArenaWords = uint64(1) << 34

// arenaWords sizes a simulated PM arena for a workload on a structure
// whose nodes take nodeWords each: generous slack over the steady-state
// node count so churn plus epoch lag never exhausts the pool. The result
// is clamped to maxArenaWords so absurd key ranges degrade into an
// arena-exhaustion panic at run time instead of a silently truncated
// allocation here.
func arenaWords(keyRange, nodeWords uint64) int {
	slots := keyRange // ~5.5 keys/leaf steady state => ~keyRange/5 leaves
	if slots < 1<<16 {
		slots = 1 << 16
	}
	limit := maxArenaWords
	if limit > uint64(math.MaxInt) {
		limit = uint64(math.MaxInt) // 32-bit int: the clamp itself must fit
	}
	words := slots * nodeWords
	if slots > maxArenaWords/nodeWords || words > limit {
		words = limit
	}
	return int(words)
}

// registry is the single source of truth for the structures the harness
// can build: Names, NewDict and the registry test all derive from it.
var registry = map[string]func(keyRange uint64) dict.Dict{
	"OCC-ABtree":    func(uint64) dict.Dict { return coreDict{T: core.New()} },
	"Elim-ABtree":   func(uint64) dict.Dict { return coreDict{T: core.New(core.WithElimination())} },
	"OCC-ABtree-b4": func(uint64) dict.Dict { return coreDict{T: core.New(core.WithDegree(2, 4))} },
	"OCC-ABtree-b8": func(uint64) dict.Dict { return coreDict{T: core.New(core.WithDegree(2, 8))} },
	"LF-ABtree":     func(uint64) dict.Dict { return selfDict{lfabtree.New()} },
	"CATree":        func(uint64) dict.Dict { return selfDict{catree.New()} },
	"DGT15":         func(uint64) dict.Dict { return selfDict{extbst.New()} },
	"EFRB10":        func(uint64) dict.Dict { return selfDict{efrbbst.New()} },
	"SplayList":     func(uint64) dict.Dict { return selfDict{splaylist.New()} },
	"BCCO10":        func(uint64) dict.Dict { return selfDict{bcco10.New()} },
	"CBTree":        func(uint64) dict.Dict { return selfDict{cbtree.New()} },
	"OLC-ART":       func(uint64) dict.Dict { return selfDict{olcart.New()} },
	"C-IST":         func(uint64) dict.Dict { return selfDict{cist.New()} },
	"OpenBw-Tree":   func(uint64) dict.Dict { return selfDict{bwtree.New()} },
	"p-OCC-ABtree": func(kr uint64) dict.Dict {
		return pabDict{T: pabtree.New(pmem.New(arenaWords(kr, pabtree.NodeWords)))}
	},
	"p-Elim-ABtree": func(kr uint64) dict.Dict {
		return pabDict{T: pabtree.New(pmem.New(arenaWords(kr, pabtree.NodeWords)), pabtree.WithElimination())}
	},
	"FPTree": func(kr uint64) dict.Dict { return selfDict{fptree.New(pmem.New(arenaWords(kr, fptree.NodeWords)))} },
	"RNTree": func(kr uint64) dict.Dict { return selfDict{rntree.New(pmem.New(arenaWords(kr, rntree.NodeWords)))} },

	// Range-partitioned compositions (internal/shard): N per-shard trees
	// behind one dict.Dict, point ops routed by key, scans crossing
	// shard boundaries. The ABtree shards share one rq clock, so their
	// RangeSnapshot is linearizable across the whole partition.
	"shard4-occ-abtree": func(kr uint64) dict.Dict {
		return shard.New(4, kr, func(_ int, c *rq.Clock) dict.Dict {
			return coreDict{T: core.New(core.WithRQClock(c))}
		})
	},
	"shard8-occ-abtree": func(kr uint64) dict.Dict {
		return shard.New(8, kr, func(_ int, c *rq.Clock) dict.Dict {
			return coreDict{T: core.New(core.WithRQClock(c))}
		})
	},
	"shard8-elim-abtree": func(kr uint64) dict.Dict {
		return shard.New(8, kr, func(_ int, c *rq.Clock) dict.Dict {
			return coreDict{T: core.New(core.WithElimination(), core.WithRQClock(c))}
		})
	},
	"shard8-p-occ-abtree": func(kr uint64) dict.Dict {
		return shard.New(8, kr, func(i int, c *rq.Clock) dict.Dict {
			// Inner shards hold ~1/8 of the keys (arenaWords floors at a
			// comfortable minimum); the last shard is open above keyRange
			// and absorbs append-style insert streams (Workload E's new
			// records), so it keeps the full unsharded headroom.
			words := arenaWords(kr/8, pabtree.NodeWords)
			if i == 7 {
				words = arenaWords(kr, pabtree.NodeWords)
			}
			return pabDict{T: pabtree.New(pmem.New(words), pabtree.WithRQClock(c))}
		})
	},
	"shard8-catree": func(kr uint64) dict.Dict {
		return shard.New(8, kr, func(int, *rq.Clock) dict.Dict {
			return selfDict{catree.New()} // weak cross-shard Range only
		})
	},
	"shard8-lf-abtree": func(kr uint64) dict.Dict {
		return shard.New(8, kr, func(int, *rq.Clock) dict.Dict {
			return selfDict{lfabtree.New()} // weak cross-shard Range only
		})
	},
}

// Volatile structure names in the order the paper's legends use.
var VolatileStructures = []string{
	"OCC-ABtree", "Elim-ABtree", "LF-ABtree", "CATree", "DGT15", "EFRB10", "SplayList",
	"BCCO10", "CBTree", "OLC-ART", "C-IST", "OpenBw-Tree",
}

// PersistentStructures for Figure 17 / Table 1.
var PersistentStructures = []string{
	"p-OCC-ABtree", "p-Elim-ABtree", "FPTree", "RNTree",
}

// ShardStructures lists the range-partitioned compositions.
var ShardStructures = []string{
	"shard4-occ-abtree", "shard8-occ-abtree", "shard8-elim-abtree",
	"shard8-p-occ-abtree", "shard8-catree", "shard8-lf-abtree",
}

// ScanStructures lists the registered structures whose handles support
// linearizable snapshot scans (SnapshotRanger); all of them also
// support weak scans (Ranger). Snapshot-mode scan workloads (Workload
// E, scan-mix microbenchmarks) default to this set.
var ScanStructures = []string{
	"OCC-ABtree", "Elim-ABtree", "p-OCC-ABtree", "p-Elim-ABtree",
	"shard4-occ-abtree", "shard8-occ-abtree", "shard8-elim-abtree",
	"shard8-p-occ-abtree",
}

// RangeStructures lists the structures whose handles support at least
// weak (non-linearizable) range scans: the snapshot-capable set plus
// the competitors with a native Range. Weak-mode scan workloads default
// to this set.
var RangeStructures = append(append([]string{}, ScanStructures...),
	"CATree", "LF-ABtree", "OpenBw-Tree", "shard8-catree", "shard8-lf-abtree",
)

// NewDict constructs a registered structure sized for keyRange. It panics
// on an unknown name (Names lists the registry).
//
// The special form "remote:<addr>" dials an abtree-server at addr
// (internal/client) and returns its client as the dictionary: every
// workload then runs over the wire against whatever structure the
// server hosts, keyRange included (size the server's structure with
// abtree-server -keys or client.Open). The hosted instance is reused
// across cells — state carries over, and a re-Prefill of an already
// loaded instance tops it up toward full (bounded, see Prefill) rather
// than recreating steady state. cmd/abtree-bench's -remote mode is the
// multi-cell driver: the same client, but the requested structure is
// re-opened fresh per experiment cell.
//
// The form "remote-mux:<addr>" dials a coalescing client.Mux instead:
// every worker handle shares the mux's connection, and concurrent
// per-key operations are merged into batch frames on the wire (ISSUE
// 7). cmd/abtree-bench's -remote-mux flag drives this form.
func NewDict(name string, keyRange uint64) dict.Dict {
	if addr, ok := strings.CutPrefix(name, "remote:"); ok {
		c, err := client.Dial(addr)
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		return c
	}
	if addr, ok := strings.CutPrefix(name, "remote-mux:"); ok {
		m, err := client.DialMux(addr, client.Config{})
		if err != nil {
			panic(fmt.Sprintf("bench: %v", err))
		}
		return m
	}
	build, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("bench: unknown structure %q (known: %v)", name, Names()))
	}
	return build(keyRange)
}

// Names lists every registered structure, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
