package routing

import (
	"errors"
	"math"
	"testing"

	"repro/internal/topology"
)

// TestBuildRouteTableOffsetOverflowGuard exercises the int32 CSR overflow
// guard by lowering the entry cap instead of materializing a >2 GiB table:
// the moment the flat link array outgrows what the offsets can address,
// the build must fail with ErrRouteTableTooLarge (which sweeps translate
// into the per-pattern oracle fallback) rather than wrapping the stored
// offset negative.
func TestBuildRouteTableOffsetOverflowGuard(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if full.Entries() < 2 {
		t.Fatalf("network too small to trip the guard: %d entries", full.Entries())
	}

	defer func() { maxRouteTableEntries = math.MaxInt32 }()
	maxRouteTableEntries = full.Entries() - 1
	_, err = BuildRouteTable(r, f.Ports())
	if !errors.Is(err, ErrRouteTableTooLarge) {
		t.Fatalf("err = %v, want ErrRouteTableTooLarge", err)
	}

	// At exactly the cap the table still builds: the guard rejects only
	// genuinely unaddressable sizes.
	maxRouteTableEntries = full.Entries()
	if _, err := BuildRouteTable(r, f.Ports()); err != nil {
		t.Fatalf("build at the exact cap failed: %v", err)
	}
}

// TestLinkDedupEpochWrap pins the wrap behaviour of the dedup scratch: a
// generation counter that wraps to zero would make every never-marked
// entry (seen[l] == 0) look already-seen, silently dropping links from
// spans. The wrap must clear the scratch and restart at epoch 1.
func TestLinkDedupEpochWrap(t *testing.T) {
	d := epochSet{epoch: ^uint32(0) - 1}
	d.clear() // epoch = MaxUint32
	if !d.add(0) || !d.add(1) {
		t.Fatal("fresh links not first sights before the wrap")
	}
	if d.add(0) {
		t.Fatal("duplicate link reported as first sight")
	}
	d.clear() // wraps: must clear and restart at 1
	if d.epoch != 1 {
		t.Fatalf("post-wrap epoch = %d, want 1", d.epoch)
	}
	for l := 0; l < 2; l++ {
		if d.seen[l] != 0 {
			t.Fatalf("seen[%d] = %d not cleared on wrap", l, d.seen[l])
		}
	}
	if !d.add(0) {
		t.Fatal("post-wrap pair aliased a stale entry: link 0 not a first sight")
	}
	if d.add(0) {
		t.Fatal("post-wrap duplicate reported as first sight")
	}
}

// TestBuildRouteTableEpochWrapParity forces the 2^32 wrap inside a small
// build (via the start-epoch test hook) and requires the resulting table
// to be identical to one built with a fresh counter — the regression that
// previously aliased stale marks and emptied every post-wrap span.
func TestBuildRouteTableEpochWrapParity(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}

	defer func() { routeTableStartEpoch = 0 }()
	// The wrap lands a few pairs into the hosts² pair scan.
	routeTableStartEpoch = ^uint32(0) - 3
	got, err := BuildRouteTable(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries() != want.Entries() || got.NumLinks() != want.NumLinks() {
		t.Fatalf("wrapped build: %d entries / %d links, want %d / %d",
			got.Entries(), got.NumLinks(), want.Entries(), want.NumLinks())
	}
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			a, b := got.PairLinks(s, d), want.PairLinks(s, d)
			if len(a) != len(b) {
				t.Fatalf("pair %d->%d: wrapped span %v, want %v", s, d, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("pair %d->%d: wrapped span %v, want %v", s, d, a, b)
				}
			}
		}
	}
}
