package rq

import (
	"testing"
	"unsafe"
)

func pairs(ks ...uint64) []Pair {
	out := make([]Pair, len(ks))
	for i, k := range ks {
		out[i] = Pair{K: k, V: k * 10}
	}
	return out
}

func stamps(chain *Version) []uint64 {
	var out []uint64
	for v := chain; v != nil; v = v.Next() {
		out = append(out, v.Stamp)
	}
	return out
}

func eqU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestProviderTimestamps(t *testing.T) {
	p := NewProvider()
	if got := p.ReadStamp(); got != 0 {
		t.Fatalf("fresh stamp %d, want 0", got)
	}
	// No scans in flight: MinActive says future scans are > current ts.
	if got := p.MinActive(); got != 1 {
		t.Fatalf("idle MinActive %d, want 1", got)
	}
	s1 := p.Register()
	s2 := p.Register()
	t1 := s1.Begin()
	if t1 != 1 {
		t.Fatalf("first scan timestamp %d, want 1", t1)
	}
	t2 := s2.Begin()
	if t2 != 2 {
		t.Fatalf("second scan timestamp %d, want 2", t2)
	}
	if got := p.MinActive(); got != t1 {
		t.Fatalf("MinActive %d with scans %d,%d in flight", got, t1, t2)
	}
	s1.End()
	if got := p.MinActive(); got != t2 {
		t.Fatalf("MinActive %d after first scan ended, want %d", got, t2)
	}
	s2.End()
	if got := p.MinActive(); got != 3 {
		t.Fatalf("idle MinActive %d, want ts+1 = 3", got)
	}
	if scans, _ := p.Stats(); scans != 2 {
		t.Fatalf("scan count %d, want 2", scans)
	}
}

// TestSharedClockProviders checks the N-trees-one-clock configuration:
// timestamps, the active-scan registry and the scan count are
// clock-wide, while version counts stay per-provider.
func TestSharedClockProviders(t *testing.T) {
	c := NewClock()
	pa := NewProviderWith(c)
	pb := NewProviderWith(c)
	if pa.Clock() != c || pb.Clock() != c {
		t.Fatal("providers did not retain the shared clock")
	}

	// A scan begun through one provider's registration is visible in
	// the other provider's timestamp and pruning bound.
	sa := pa.Register()
	ts := sa.Begin()
	if ts != 1 {
		t.Fatalf("first shared timestamp %d, want 1", ts)
	}
	if got := pb.ReadStamp(); got != ts {
		t.Fatalf("provider B reads stamp %d, want the shared %d", got, ts)
	}
	if got := pb.MinActive(); got != ts {
		t.Fatalf("provider B MinActive %d: an active scan on the shared clock must bound pruning everywhere", got)
	}
	sa.End()
	if got := pb.MinActive(); got != ts+1 {
		t.Fatalf("idle shared MinActive %d, want %d", got, ts+1)
	}

	// A second scan through B draws the next timestamp — one total
	// order across providers.
	sb := pb.Register()
	if ts2 := sb.Begin(); ts2 != ts+1 {
		t.Fatalf("provider B scan timestamp %d, want %d", ts2, ts+1)
	}
	sb.End()

	// Scan count is clock-wide; versions are per-provider.
	pa.Push(nil, 0, nil, pa.MinActive())
	aScans, aVers := pa.Stats()
	bScans, bVers := pb.Stats()
	if aScans != 2 || bScans != 2 {
		t.Fatalf("clock-wide scan counts (%d, %d), want (2, 2)", aScans, bScans)
	}
	if aVers != 1 || bVers != 0 {
		t.Fatalf("per-provider version counts (%d, %d), want (1, 0)", aVers, bVers)
	}
}

func TestPushVisibleAtPrune(t *testing.T) {
	p := NewProvider()
	// History: state stamped 0 (pairs 1), then 3 (pairs 1,2), then 5.
	var chain *Version
	chain = p.Push(chain, 0, pairs(1), 0)
	chain = p.Push(chain, 3, pairs(1, 2), 0)
	chain = p.Push(chain, 5, pairs(1, 2, 3), 0)
	if got := stamps(chain); !eqU64(got, []uint64{5, 3, 0}) {
		t.Fatalf("chain stamps %v", got)
	}
	// A scan at t resolves to the newest entry stamped < t.
	for _, tc := range []struct {
		t    uint64
		want []uint64
	}{
		{1, []uint64{1}},
		{3, []uint64{1}},
		{4, []uint64{1, 2}},
		{6, []uint64{1, 2, 3}},
	} {
		if got := visible(chain, tc.t, 0, ^uint64(0)); !eqU64(got, tc.want) {
			t.Fatalf("VisibleAt(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	// Pruning with minActive 4: the entry stamped 3 still serves t=4;
	// the entry stamped 0 is shadowed for every reachable timestamp.
	chain = p.Push(chain, 7, pairs(1, 2, 3, 4), 4)
	if got := stamps(chain); !eqU64(got, []uint64{7, 5, 3}) {
		t.Fatalf("pruned chain stamps %v", got)
	}
	if _, versions := p.Stats(); versions != 4 {
		t.Fatalf("version count %d, want 4", versions)
	}
}

// visible resolves chain at t within [lo, hi] and returns the keys.
func visible(chain *Version, t, lo, hi uint64) []uint64 {
	var out []uint64
	items, _ := VisibleAt(nil, chain, t, lo, hi)
	for _, p := range items {
		out = append(out, p.K)
	}
	return out
}

// TestRestrict checks a split's inheritance: both halves share one
// inheritance node over the split leaf's chain, and each resolves to its
// own key range — the restriction is made when a scan resolves, not by
// copying.
func TestRestrict(t *testing.T) {
	p := NewProvider()
	var chain *Version
	chain = p.Push(chain, 2, pairs(1, 5, 9), 0)
	chain = p.Push(chain, 4, pairs(1, 5, 6, 9), 0)
	h := Inherit(chain, chain, 6)
	if h.Next() != chain {
		t.Fatal("inheritance node does not link the split leaf's chain")
	}
	for _, tc := range []struct {
		name      string
		t, lo, hi uint64
		want      []uint64
	}{
		{"left at 4", 5, 0, 5, []uint64{1, 5}},
		{"left at 2", 3, 0, 5, []uint64{1, 5}},
		{"right at 4", 5, 6, ^uint64(0), []uint64{6, 9}},
		{"right at 2", 3, 6, ^uint64(0), []uint64{9}},
		{"straddling", 5, 5, 6, []uint64{5, 6}},
	} {
		if got := visible(h, tc.t, tc.lo, tc.hi); !eqU64(got, tc.want) {
			t.Errorf("%s: VisibleAt(%d, [%d, %d]) = %v, want %v", tc.name, tc.t, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestMergeTimelines checks a merge's inheritance: keys below the
// separator resolve through the left leaf's timeline and the rest
// through the right's, each at its own newest state before t.
func TestMergeTimelines(t *testing.T) {
	p := NewProvider()
	// Left leaf (keys < 10): states at 0 and 4. Right leaf (keys >= 10):
	// states at 0 and 6.
	var a, b *Version
	a = p.Push(a, 0, pairs(1), 0)
	a = p.Push(a, 4, pairs(1, 2), 0)
	b = p.Push(b, 0, pairs(10), 0)
	b = p.Push(b, 6, pairs(10, 11), 0)
	// wide is a left timeline inherited from a split, so it also holds
	// keys at or above the merge's separator; they must not leak.
	wide := p.Push(nil, 0, pairs(1, 12), 0)

	all := ^uint64(0)
	for _, tc := range []struct {
		name string
		h    *Version
		t    uint64
		want []uint64
	}{
		// At stamp 6: newest of both sides. At 4: left's update, right
		// still old. At 0: both initial.
		{"both at 6", Inherit(a, b, 10), 7, []uint64{1, 2, 10, 11}},
		{"both at 4", Inherit(a, b, 10), 5, []uint64{1, 2, 10}},
		{"both at 0", Inherit(a, b, 10), 3, []uint64{1, 10}},
		// One-sided merges keep the survivor's history.
		{"left only", Inherit(a, nil, 10), 7, []uint64{1, 2}},
		{"left only at 0", Inherit(a, nil, 10), 3, []uint64{1}},
		{"right only", Inherit(nil, b, 10), 7, []uint64{10, 11}},
		{"left clipped", Inherit(wide, nil, 10), 1, []uint64{1}},
		{"nested", Inherit(Inherit(a, b, 10), wide, 12), 7, []uint64{1, 2, 10, 11, 12}},
	} {
		if got := visible(tc.h, tc.t, 0, all); !eqU64(got, tc.want) {
			t.Errorf("%s: VisibleAt(%d) = %v, want %v", tc.name, tc.t, got, tc.want)
		}
	}
	if Inherit(nil, nil, 10) != nil {
		t.Fatal("inheriting two empty timelines should be nil")
	}
	if n := testing.AllocsPerRun(100, func() { Inherit(nil, nil, 10) }); n != 0 {
		t.Fatalf("Inherit(nil, nil, _) allocates %.0f", n)
	}
}

// TestPruneStopsAtInheritance checks that pruning one sibling's chain
// past its inheritance node recycles only the sibling's own entries and
// leaves both inherited timelines, shared with the other sibling,
// intact.
func TestPruneStopsAtInheritance(t *testing.T) {
	p := NewProvider()
	var a, b *Version
	a = p.Push(a, 0, pairs(1), 0)
	a = p.Push(a, 2, pairs(1, 2), 0)
	b = p.Push(b, 1, pairs(10), 0)
	h := Inherit(a, b, 10)
	left := p.Push(h, 5, pairs(1, 2, 10), 0)
	// minActive 10: the stamp-9 head serves every reachable scan, so the
	// stamp-5 entry is cut and recycled, and the walk must stop at h.
	left = p.Push(left, 9, pairs(1, 10), 10)
	if got := stamps(left); !eqU64(got, []uint64{9}) {
		t.Fatalf("pruned chain stamps %v, want just the head", got)
	}
	if got := p.Recycled(); got != 1 {
		t.Fatalf("recycled %d entries, want only the sibling's own 1", got)
	}
	// A prune that reaches h before any entry below minActive stops
	// there too.
	right := p.Push(h, 7, pairs(10, 11), 5)
	if right.Next() != h || h.Next() != a {
		t.Fatal("prune cut into the inheritance node")
	}
	if got := stamps(a); !eqU64(got, []uint64{2, 0}) {
		t.Fatalf("inherited left timeline stamps %v, want [2 0]", got)
	}
	if got := stamps(b); !eqU64(got, []uint64{1}) {
		t.Fatalf("inherited right timeline stamps %v, want [1]", got)
	}
	if got := visible(right, 3, 0, ^uint64(0)); !eqU64(got, []uint64{1, 2, 10}) {
		t.Fatalf("sibling resolves %v through the shared history, want [1 2 10]", got)
	}
}

// TestVersionSize pins Version to the 48-byte size class: an
// inheritance node must not move every snapshot up to 64 bytes.
func TestVersionSize(t *testing.T) {
	if n := unsafe.Sizeof(Version{}); n > 48 {
		t.Fatalf("Version is %d bytes, want <= 48", n)
	}
}
