package bench

// The "remote:<addr>" registry form: NewDict dials an abtree-server and
// the whole harness runs over the wire. This is the in-process version
// of what `abtree-bench -remote` does across processes.

import (
	"testing"
	"time"

	"repro/internal/server"
)

func TestRemoteRegistryEntry(t *testing.T) {
	s, err := server.New(NewDict, "shard4-occ-abtree", 4096, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	d := NewDict("remote:"+addr.String(), 4096)
	cfg := Config{
		Threads: 4, KeyRange: 4096, UpdatePct: 40, ScanPct: 10,
		SnapScans: true, Duration: 100 * time.Millisecond, Seed: 3,
	}
	Prefill(d, cfg)
	res, err := Run(d, cfg) // key-sum validated remotely via STATS
	if err != nil {
		t.Fatalf("remote harness run: %v", err)
	}
	if res.Ops == 0 || res.ScanPairs == 0 {
		t.Fatalf("remote run did no work: ops=%d scanpairs=%d", res.Ops, res.ScanPairs)
	}

	// Batched mix over the same remote dict.
	cfg.ScanPct, cfg.SnapScans, cfg.Batch = 0, false, 32
	if _, err := Run(d, cfg); err != nil {
		t.Fatalf("remote batched run: %v", err)
	}
}

// TestRemoteRegistryUnknown: a bad remote address must panic with a
// dial error (NewDict's contract), not hang.
func TestRemoteRegistryUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDict(remote:<dead addr>) did not panic")
		}
	}()
	NewDict("remote:127.0.0.1:1", 10)
}
