package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/pabtree"
	"repro/internal/pmem"
	"repro/internal/rq"
	"repro/internal/treedict"
)

// fuzzShards and fuzzRange shape FuzzBatchOps' partition: eight shards
// of 16 keys each, bounded at 17, 33, ..., 113, the last one open above
// 128. Fuzz keys run 1..160, so they fall on both sides of every bound
// and into the open end.
const (
	fuzzShards = 8
	fuzzRange  = 128
	fuzzKeys   = 160
)

// fuzzPartition is one partition under test and a check of its shards'
// structure.
type fuzzPartition struct {
	name     string
	d        dict.Dict
	validate func() error
}

func fuzzPartitions() []fuzzPartition {
	occ := make([]*core.Tree, fuzzShards)
	pocc := make([]*pabtree.Tree, fuzzShards)
	return []fuzzPartition{
		{
			name: "OCC-ABtree",
			d: New(fuzzShards, fuzzRange, func(i int, c *rq.Clock) dict.Dict {
				occ[i] = core.New(core.WithDegree(2, 4), core.WithRQClock(c))
				return treedict.Core{T: occ[i]}
			}),
			validate: func() error {
				for _, tr := range occ {
					if err := tr.Validate(); err != nil {
						return err
					}
				}
				return nil
			},
		},
		{
			name: "p-OCC-ABtree",
			d: New(fuzzShards, fuzzRange, func(i int, c *rq.Clock) dict.Dict {
				pocc[i] = pabtree.New(pmem.New(1024*pabtree.NodeWords), pabtree.WithDegree(2, 4), pabtree.WithRQClock(c))
				return treedict.Pab{T: pocc[i]}
			}),
			validate: func() error {
				for _, tr := range pocc {
					if err := tr.Validate(); err != nil {
						return err
					}
					if err := tr.ValidatePersisted(); err != nil {
						return err
					}
				}
				return nil
			},
		},
	}
}

// FuzzBatchOps drives a partition's batches from a fuzzer-controlled
// byte stream, as storetest.FuzzBatchOps drives one tree's: a header
// byte picks the operation (header mod 3) and the batch length (1-16),
// and each byte after it is a key, byte mod 160 + 1, so batches repeat
// keys, straddle shard bounds and leave most shards without a key. A
// model map, applied key by key in input order, is the oracle for every
// per-key result; at the end every key's Find and the key-sum must
// agree with it and every shard's tree must be valid. Degree (2,4)
// makes leaves fill mid-run, so the shards' level loops serve leftover
// runs. The seed corpus runs as a regular test.
func FuzzBatchOps(f *testing.F) {
	// Both sides of every bound, inserted, found, deleted with
	// duplicates, and found again.
	f.Add([]byte{3*13 + 0, 15, 16, 31, 32, 47, 48, 63, 64, 79, 80, 95, 96, 111, 112,
		3*15 + 2, 16, 15, 32, 31, 48, 47, 64, 63, 80, 79, 96, 95, 112, 111, 127, 159,
		3*7 + 1, 16, 16, 48, 47, 112, 159, 0,
		3*15 + 2, 15, 16, 31, 32, 47, 48, 63, 64, 79, 80, 95, 96, 111, 112, 0, 159})
	// A dense insert into one shard (splits mid-run), re-inserts and a
	// draining delete.
	f.Add([]byte{3*15 + 0, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 34,
		3*15 + 0, 47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32,
		3*15 + 1, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range fuzzPartitions() {
			h := p.d.NewHandle()
			bh := h.(dict.Batcher)
			model := make(map[uint64]uint64)
			for i := 0; i < len(data); {
				op, n := data[i]%3, int(data[i]/3)%16+1
				i++
				var keys, vals []uint64
				for ; n > 0 && i < len(data); n, i = n-1, i+1 {
					k := uint64(data[i])%fuzzKeys + 1
					keys = append(keys, k)
					vals = append(vals, k<<16|uint64(i))
				}
				res, ok := make([]uint64, len(keys)), make([]bool, len(keys))
				switch op {
				case 0:
					bh.InsertBatch(keys, vals, res, ok)
				case 1:
					bh.DeleteBatch(keys, res, ok)
				default:
					bh.FindBatch(keys, res, ok)
				}
				for j, k := range keys {
					mv, present := model[k]
					want := present
					switch op {
					case 0:
						want = !present
						if !present {
							model[k] = vals[j]
						}
					case 1:
						delete(model, k)
					}
					if ok[j] != want || (present && res[j] != mv) {
						t.Fatalf("%s byte %d: op %d key %d (#%d of %v) = (%d, %v), model (%d, %v)",
							p.name, i, op, k, j, keys, res[j], ok[j], mv, want)
					}
				}
			}
			var sum uint64
			for k := uint64(1); k <= fuzzKeys; k++ {
				mv, present := model[k]
				if v, ok := h.Find(k); ok != present || v != mv {
					t.Fatalf("%s: Find(%d) = (%d, %v), model (%d, %v)", p.name, k, v, ok, mv, present)
				}
				if present {
					sum += k
				}
			}
			if got := p.d.KeySum(); got != sum {
				t.Fatalf("%s: KeySum %d, model %d", p.name, got, sum)
			}
			if err := p.validate(); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
	})
}
