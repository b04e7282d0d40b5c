package analysis

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestCheckDetectsContention(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	// Force two different pairs through top switch 0 into switch 2.
	p1 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 0)
	p2 := f.RouteVia(f.HostID(1, 0), f.HostID(2, 1), 0)
	a := &routing.Assignment{
		Net:      f.Net,
		Pairs:    []permutation.Pair{{Src: 0, Dst: 4}, {Src: 2, Dst: 5}},
		PathSets: [][]topology.Path{{p1}, {p2}},
	}
	rep := Check(a)
	if !rep.HasContention() {
		t.Fatal("shared downlink not detected")
	}
	if rep.MaxLoad != 2 {
		t.Fatalf("max load %d, want 2", rep.MaxLoad)
	}
	if err := rep.ContentionError(); err == nil || !strings.Contains(err.Error(), "carries 2 SD pairs") {
		t.Fatalf("ContentionError = %v", err)
	}
	// The contended link must be the downlink top0 -> bottom2.
	want := f.DownLink(0, 2)
	found := false
	for _, l := range rep.Contended {
		if l == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("contended links %v do not include %d", rep.Contended, want)
	}
}

func TestCheckCleanAssignment(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	p1 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 0)
	p2 := f.RouteVia(f.HostID(1, 0), f.HostID(2, 1), 1)
	a := &routing.Assignment{
		Net:      f.Net,
		Pairs:    []permutation.Pair{{Src: 0, Dst: 4}, {Src: 2, Dst: 5}},
		PathSets: [][]topology.Path{{p1}, {p2}},
	}
	rep := Check(a)
	if rep.HasContention() {
		t.Fatal("false contention")
	}
	if rep.ContentionError() != nil {
		t.Fatal("ContentionError should be nil")
	}
	if rep.MaxLoad != 1 {
		t.Fatalf("max load %d", rep.MaxLoad)
	}
}

func TestCheckMultipathCountsOncePerPair(t *testing.T) {
	// A pair whose two paths share their host uplink must not count
	// twice on that link.
	f := topology.NewFoldedClos(2, 2, 3)
	p1 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 0)
	p2 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 1)
	a := &routing.Assignment{
		Net:      f.Net,
		Pairs:    []permutation.Pair{{Src: 0, Dst: 4}},
		PathSets: [][]topology.Path{{p1, p2}},
	}
	rep := Check(a)
	if rep.HasContention() {
		t.Fatal("single pair cannot contend with itself")
	}
	if rep.MaxLoad != 1 {
		t.Fatalf("max load %d, want 1", rep.MaxLoad)
	}
}

func TestBlockingWitnessErrorsOnNonblocking(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckLemma1AllPairs(r, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BlockingWitness(res, f.Ports()); err == nil {
		t.Fatal("witness for nonblocking routing should error")
	}
}

func TestSweepRandomReportsBlocked(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	r := routing.NewDestMod(f)
	res := sweepRandom(t, r, f.Ports(), 50, 13)
	if res.RouteErr != nil {
		t.Fatal(res.RouteErr)
	}
	if res.Blocked == 0 || res.FirstBlocked == nil {
		t.Fatal("dest-mod should block some patterns")
	}
	if res.Nonblocking() {
		t.Fatal("Nonblocking() inconsistent")
	}
}

func TestSweepExhaustiveStopsOnRouteError(t *testing.T) {
	f := topology.NewFoldedClos(2, 1, 2)
	r, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	res := sweep(t, r, f.Ports(), SweepSpec{})
	if res.RouteErr == nil {
		t.Fatal("expected route error with m=1")
	}
	if res.Nonblocking() {
		t.Fatal("errored sweep must not claim nonblocking")
	}
}

func TestBlockingProbabilityBounds(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 5)
	good, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	frac, load, err := BlockingProbability(good, f.Ports(), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if frac != 0 || load != 1 {
		t.Fatalf("nonblocking router: frac=%v load=%v", frac, load)
	}
	bad := routing.NewDestMod(f)
	frac, load, err = BlockingProbability(bad, f.Ports(), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 || load <= 1 {
		t.Fatalf("dest-mod: frac=%v load=%v", frac, load)
	}
	// Zero trials are a no-op.
	frac, load, err = BlockingProbability(good, f.Ports(), 0, 3)
	if err != nil || frac != 0 || load != 0 {
		t.Fatal("zero trials should return zeros")
	}
	// Routing errors surface.
	tiny := topology.NewFoldedClos(2, 1, 3)
	ad, err := routing.NewNonblockingAdaptive(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BlockingProbability(ad, tiny.Ports(), 10, 3); err == nil {
		t.Fatal("expected routing error")
	}
}

// lemma1Reference is the direct form of CheckLemma1AllPairs: it keeps
// each link's distinct sources and destinations by a linear scan per pair.
// CheckLemma1AllPairs must match it exactly, first-appearance order of
// Sources and Dests included (BlockingWitness and the worst-load matching
// read them).
func lemma1Reference(r routing.PairRouter, hosts int) (*Lemma1Result, error) {
	insert := func(s *[]int, x int) {
		for _, y := range *s {
			if y == x {
				return
			}
		}
		*s = append(*s, x)
	}
	res := &Lemma1Result{Nonblocking: true, Links: make(map[topology.LinkID]*LinkSDView)}
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			p, err := r.PathFor(s, d)
			if err != nil {
				return nil, fmt.Errorf("analysis: routing pair %d->%d: %w", s, d, err)
			}
			for _, l := range p.Links {
				v := res.Links[l]
				if v == nil {
					v = &LinkSDView{Link: l}
					res.Links[l] = v
				}
				v.Pairs = append(v.Pairs, permutation.Pair{Src: s, Dst: d})
				insert(&v.Sources, s)
				insert(&v.Dests, d)
			}
		}
	}
	for _, v := range res.Links {
		if !v.OneSourceOrOneDest() && (res.Violation == nil || v.Link < res.Violation.Link) {
			res.Nonblocking = false
			res.Violation = v
		}
	}
	return res, nil
}

func TestCheckLemma1AllPairsMatchesReference(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	wide := topology.NewFoldedClos(3, 4, 5)
	broke := &routing.FtreeSinglePath{F: f, RouterName: "broke", TopChoice: func(s, d int) int {
		if s >= 4 {
			return 99
		}
		return 0
	}}
	for _, c := range []struct {
		r     routing.PairRouter
		hosts int
	}{
		{paper, f.Ports()},
		{routing.NewDestMod(f), f.Ports()},
		{routing.NewDestMod(wide), wide.Ports()},
		{routing.NewRandomFixed(wide, 5), wide.Ports()},
		{routing.NewDestMod(wide), 7}, // a host prefix of the fabric
		{broke, f.Ports()},
	} {
		want, wantErr := lemma1Reference(c.r, c.hosts)
		got, err := CheckLemma1AllPairs(c.r, c.hosts)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s hosts=%d: error %v, want %v", c.r.Name(), c.hosts, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s hosts=%d: result differs from the reference", c.r.Name(), c.hosts)
		}
	}
}

// TestBlockingProbabilityAllocsIndependentOfTrials pins the pooled-trial
// property: every trial refills one pattern, so the allocation count is a
// per-call constant.
func TestBlockingProbabilityAllocsIndependentOfTrials(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	r, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(trials int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := BlockingProbability(r, f.Ports(), trials, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := measure(8), measure(64); large > small {
		t.Fatalf("BlockingProbability allocations scale with trials: %v allocs at 8 trials, %v at 64", small, large)
	}
}

func TestLinkSDViewPredicate(t *testing.T) {
	v := &LinkSDView{Sources: []int{1}, Dests: []int{2, 3}}
	if !v.OneSourceOrOneDest() {
		t.Fatal("single source should pass")
	}
	v = &LinkSDView{Sources: []int{1, 2}, Dests: []int{3}}
	if !v.OneSourceOrOneDest() {
		t.Fatal("single dest should pass")
	}
	v = &LinkSDView{Sources: []int{1, 2}, Dests: []int{3, 4}}
	if v.OneSourceOrOneDest() {
		t.Fatal("multi/multi should fail")
	}
}
