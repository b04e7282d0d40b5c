package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// checkReference is the original map-based Check, kept verbatim as the
// behavioural oracle for the flat-array Checker: identical LinkPairs
// content, identical ascending Contended list, identical MaxLoad.
func checkReference(a *routing.Assignment) *Report {
	rep := &Report{Assignment: a, LinkPairs: make(map[topology.LinkID][]int)}
	for i, ps := range a.PathSets {
		seen := map[topology.LinkID]bool{}
		for _, p := range ps {
			for _, l := range p.Links {
				if !seen[l] {
					seen[l] = true
					rep.LinkPairs[l] = append(rep.LinkPairs[l], i)
				}
			}
		}
	}
	for l, pairs := range rep.LinkPairs {
		if len(pairs) > rep.MaxLoad {
			rep.MaxLoad = len(pairs)
		}
		if len(pairs) >= 2 {
			rep.Contended = append(rep.Contended, l)
		}
	}
	slices.Sort(rep.Contended)
	return rep
}

func reportsMatch(t *testing.T, name string, got, want *Report) {
	t.Helper()
	if got.MaxLoad != want.MaxLoad {
		t.Fatalf("%s: MaxLoad %d, want %d", name, got.MaxLoad, want.MaxLoad)
	}
	if !reflect.DeepEqual(got.Contended, want.Contended) {
		t.Fatalf("%s: Contended %v, want %v", name, got.Contended, want.Contended)
	}
	if !reflect.DeepEqual(got.LinkPairs, want.LinkPairs) {
		t.Fatalf("%s: LinkPairs mismatch\n got %v\nwant %v", name, got.LinkPairs, want.LinkPairs)
	}
}

// TestCheckerGoldenParity drives Check and a single reused Checker over a
// corpus of routed patterns — single-path and multipath routers, folded
// Clos and m-port n-tree, full and partial permutations, clean and
// contended — and demands byte-identical reports from the seed map-based
// implementation.
func TestCheckerGoldenParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	type routed struct {
		name string
		a    *routing.Assignment
	}
	var cases []routed
	add := func(r routing.Router, p *permutation.Permutation) {
		a, err := r.Route(p)
		if err != nil {
			t.Fatalf("%s on %s: %v", r.Name(), p, err)
		}
		cases = append(cases, routed{fmt.Sprintf("%s/%s", r.Name(), p), a})
	}

	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*permutation.Permutation{
		permutation.Identity(f.Ports()),
		permutation.SwitchShift(2, 3, 1),
		permutation.Random(rng, f.Ports()),
		permutation.RandomPartial(rng, f.Ports(), 0.5),
		permutation.RandomPartial(rng, f.Ports(), 0.1),
	} {
		for _, r := range []routing.Router{paper, routing.NewDestMod(f), routing.NewFullSpray(f)} {
			add(r, p)
		}
	}

	tr := topology.NewMPortNTree(4, 2)
	spray, err := routing.NewMNTSpray(tr, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*permutation.Permutation{
		permutation.Random(rng, tr.Hosts()),
		permutation.RandomPartial(rng, tr.Hosts(), 0.4),
	} {
		for _, r := range []routing.Router{routing.NewMNTDestMod(tr), routing.NewMNTRandomFixed(tr, 5), spray} {
			add(r, p)
		}
	}

	c := NewChecker(nil) // one scratch Checker reused across every case and both networks
	for _, tc := range cases {
		want := checkReference(tc.a)
		reportsMatch(t, tc.name+"/Check", Check(tc.a), want)
		c.Analyze(tc.a)
		reportsMatch(t, tc.name+"/Checker.Report", c.Report(), want)
		if c.MaxLoad() != want.MaxLoad {
			t.Fatalf("%s: Checker.MaxLoad %d, want %d", tc.name, c.MaxLoad(), want.MaxLoad)
		}
		if c.HasContention() != (len(want.Contended) > 0) {
			t.Fatalf("%s: HasContention %v", tc.name, c.HasContention())
		}
		if c.ContendedCount() != len(want.Contended) {
			t.Fatalf("%s: ContendedCount %d, want %d", tc.name, c.ContendedCount(), len(want.Contended))
		}
		got := append([]topology.LinkID(nil), c.ContendedLinks()...)
		if !reflect.DeepEqual(got, want.Contended) {
			t.Fatalf("%s: ContendedLinks %v, want %v", tc.name, got, want.Contended)
		}
		if len(c.LoadedLinks()) != len(want.LinkPairs) {
			t.Fatalf("%s: %d loaded links, want %d", tc.name, len(c.LoadedLinks()), len(want.LinkPairs))
		}
		for _, l := range c.LoadedLinks() {
			if !reflect.DeepEqual(c.PairsOn(l), want.LinkPairs[l]) {
				t.Fatalf("%s: PairsOn(%d) = %v, want %v", tc.name, l, c.PairsOn(l), want.LinkPairs[l])
			}
		}
	}
}

func TestCheckEmptyAssignment(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	a := &routing.Assignment{Net: f.Net}
	rep := Check(a)
	if rep.MaxLoad != 0 || rep.HasContention() || len(rep.LinkPairs) != 0 || rep.Contended != nil {
		t.Fatalf("empty assignment: %+v", rep)
	}
	c := NewChecker(f.Net)
	c.Analyze(a)
	if c.MaxLoad() != 0 || c.Pairs() != 0 || c.HasContention() || len(c.LoadedLinks()) != 0 {
		t.Fatal("empty assignment leaves Checker state dirty")
	}
	reportsMatch(t, "empty", c.Report(), checkReference(a))
}

// TestCheckerMultipathCountsOncePerPair pins the §IV.B accounting rule at
// the Checker level: a pair whose paths share links loads each shared link
// once, not once per path.
func TestCheckerMultipathCountsOncePerPair(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	p1 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 0)
	p2 := f.RouteVia(f.HostID(0, 0), f.HostID(2, 0), 1)
	a := &routing.Assignment{
		Net:      f.Net,
		Pairs:    []permutation.Pair{{Src: 0, Dst: 4}},
		PathSets: [][]topology.Path{{p1, p2}},
	}
	c := NewChecker(f.Net)
	c.Analyze(a)
	if c.MaxLoad() != 1 || c.HasContention() {
		t.Fatalf("single pair: MaxLoad=%d HasContention=%v", c.MaxLoad(), c.HasContention())
	}
	for _, l := range c.LoadedLinks() {
		if !reflect.DeepEqual(c.PairsOn(l), []int{0}) {
			t.Fatalf("link %d loaded %v, want [0]", l, c.PairsOn(l))
		}
	}
	reportsMatch(t, "multipath", c.Report(), checkReference(a))
}

// TestCheckerReportIndependence materializes Reports from a reused Checker
// and verifies later Analyze calls do not corrupt earlier Reports (no
// aliasing of scratch state).
func TestCheckerReportIndependence(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	destmod := routing.NewDestMod(f)
	rng := rand.New(rand.NewSource(3))
	c := NewChecker(nil)
	var reports, wants []*Report
	for i := 0; i < 5; i++ {
		p := permutation.Random(rng, f.Ports())
		a, err := destmod.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		c.Analyze(a)
		reports = append(reports, c.Report())
		wants = append(wants, checkReference(a))
	}
	for i := range reports {
		reportsMatch(t, fmt.Sprintf("report %d", i), reports[i], wants[i])
	}
}

// TestAnalyzePatternFastPathMatchesRoute verifies the PairLinkAppender
// fast path computes the same verdicts as Route+Check, and reports exactly
// the error Route would.
func TestAnalyzePatternFastPathMatchesRoute(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 3)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(paper).(routing.PairLinkAppender); !ok {
		t.Fatal("FtreeSinglePath must implement PairLinkAppender for the fast path")
	}
	rng := rand.New(rand.NewSource(9))
	c := NewChecker(nil)
	for i := 0; i < 4; i++ {
		p := permutation.Random(rng, f.Ports())
		if err := c.AnalyzePattern(paper, p); err != nil {
			t.Fatal(err)
		}
		a, err := paper.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		want := checkReference(a)
		if c.MaxLoad() != want.MaxLoad || c.HasContention() != (len(want.Contended) > 0) {
			t.Fatalf("fast path MaxLoad=%d HasContention=%v, want %d/%v",
				c.MaxLoad(), c.HasContention(), want.MaxLoad, len(want.Contended) > 0)
		}
		got := append([]topology.LinkID(nil), c.ContendedLinks()...)
		if !reflect.DeepEqual(got, want.Contended) {
			t.Fatalf("fast path ContendedLinks %v, want %v", got, want.Contended)
		}
	}
	// Error parity: an out-of-range trunk choice must surface through the
	// fast path with the exact message Route produces.
	bad := &routing.FtreeSinglePath{F: f, RouterName: "bad", TopChoice: func(s, d int) int { return 99 }}
	p := permutation.SwitchShift(2, 3, 1)
	errFast := c.AnalyzePattern(bad, p)
	_, errRoute := bad.Route(p)
	if errFast == nil || errRoute == nil {
		t.Fatalf("expected errors, got fast=%v route=%v", errFast, errRoute)
	}
	if errFast.Error() != errRoute.Error() {
		t.Fatalf("fast-path error %q differs from Route error %q", errFast, errRoute)
	}
}

// TestAnalyzePatternZeroAllocs pins the assignment-free paths: after one
// warm-up call per pattern, analyzing a pattern with the adaptive, the
// fault-avoiding adaptive, the local-reroute and the spared Theorem-3
// routers allocates nothing.
func TestAnalyzePatternZeroAllocs(t *testing.T) {
	f := topology.NewFoldedClos(2, 8, 4)
	view, err := topology.FailureSet{Tops: []int{1}, Trunks: []topology.Trunk{{Bottom: 2, Top: 5}}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	avoiding, err := routing.NewAvoidingAdaptive(f, view)
	if err != nil {
		t.Fatal(err)
	}
	spared, err := routing.NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	routers := []routing.Router{adaptive, avoiding, routing.NewLocalReroute(f, view, 3), spared}
	rng := rand.New(rand.NewSource(5))
	patterns := []*permutation.Permutation{
		permutation.Random(rng, f.Ports()),
		permutation.RandomPartial(rng, f.Ports(), 0.6),
		permutation.SwitchShift(2, 4, 1),
	}
	c := NewChecker(nil)
	for _, r := range routers {
		for i, p := range patterns {
			if err := c.AnalyzePattern(r, p); err != nil {
				t.Fatalf("%s pattern %d: %v", r.Name(), i, err)
			}
			if allocs := testing.AllocsPerRun(20, func() { _ = c.AnalyzePattern(r, p) }); allocs != 0 {
				t.Errorf("%s pattern %d: %v allocs per AnalyzePattern, want 0", r.Name(), i, allocs)
			}
		}
	}
}

// TestAnalyzePatternErrorLeavesCheckerEmpty covers each AnalyzePattern
// path — pair-level links, pattern-level links and the Route fallback —
// failing after a contended pattern: the Checker must hold an empty
// analysis, not the previous pattern's loads or a half-accounted one.
func TestAnalyzePatternErrorLeavesCheckerEmpty(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 3)
	contended := routing.NewDestMod(f)
	// Hosts 0 and 1 both send to even destinations: dest-mod puts both on
	// top switch 0, sharing bottom switch 0's uplink.
	blocking, err := permutation.FromDsts([]int{2, 4, 0, 1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Pair-level: source 4's pair fails after sources 0–3 loaded their
	// links.
	pairBad := &routing.FtreeSinglePath{F: f, RouterName: "late-bad", TopChoice: func(s, d int) int {
		if s == 4 {
			return 99
		}
		return 0
	}}
	// Pattern-level: m = 2 is below one adaptive configuration of
	// (c+1)·n = 6 top switches.
	adaptive, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path string
		r    routing.Router
	}{
		{"pair links", pairBad},
		{"pattern links", adaptive},
		{"route", routing.NewGreedyLocal(topology.NewFoldedClos(2, 2, 2))}, // wrong host count
	}
	c := NewChecker(nil)
	for _, tc := range cases {
		if err := c.AnalyzePattern(contended, blocking); err != nil {
			t.Fatal(err)
		}
		if !c.HasContention() {
			t.Fatal("fixture pattern must contend under dest-mod")
		}
		if err := c.AnalyzePattern(tc.r, blocking); err == nil {
			t.Fatalf("%s: expected a routing error", tc.path)
		}
		if c.Pairs() != 0 || c.MaxLoad() != 0 || len(c.LoadedLinks()) != 0 || c.HasContention() {
			t.Fatalf("%s: after a routing error Pairs=%d MaxLoad=%d loaded=%v contended=%v, want an empty analysis",
				tc.path, c.Pairs(), c.MaxLoad(), c.LoadedLinks(), c.ContendedLinks())
		}
		for l := topology.LinkID(0); int(l) < f.Net.NumLinks(); l++ {
			if len(c.PairsOn(l)) != 0 {
				t.Fatalf("%s: link %d still carries pairs %v", tc.path, l, c.PairsOn(l))
			}
		}
	}
}
