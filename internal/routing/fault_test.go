package routing_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// mustView binds a failure set to f or fails the test.
func mustView(t *testing.T, f *topology.FoldedClos, fs topology.FailureSet) *topology.FailureView {
	t.Helper()
	view, err := fs.View(f)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// requireHealthyPaths asserts that every pair's PathFor succeeds and
// traverses no failed link or switch of the view.
func requireHealthyPaths(t *testing.T, r routing.PairRouter, f *topology.FoldedClos, view *topology.FailureView) {
	t.Helper()
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			p, err := r.PathFor(s, d)
			if err != nil {
				t.Fatalf("%s: PathFor(%d,%d): %v", r.Name(), s, d, err)
			}
			if !view.PathHealthy(p) {
				t.Fatalf("%s: pair %d->%d traverses a failed element: %v", r.Name(), s, d, p)
			}
		}
	}
}

func TestAvoidingAdaptiveStaysNonblocking(t *testing.T) {
	// ftree(2+14, 4): the simple bound needs 1 configuration of 6
	// switches; fail 8 of the 14 and the adaptive router must still route
	// every pattern clean through the 6 healthy ones.
	f := topology.NewFoldedClos(2, 14, 4)
	view := mustView(t, f, topology.FailureSet{Tops: []int{0, 2, 3, 5, 7, 8, 11, 13}})
	r, err := routing.NewAvoidingAdaptive(f, view)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		p := permutation.Random(rng, f.Ports())
		a, err := r.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if analysis.Check(a).HasContention() {
			t.Fatalf("contention with failures on %s", p)
		}
		for _, ps := range a.PathSets {
			for _, path := range ps {
				if !view.PathHealthy(path) {
					t.Fatalf("path %v uses a failed top switch", path)
				}
			}
		}
	}
}

func TestAvoidingAdaptiveExhaustsHealthy(t *testing.T) {
	f := topology.NewFoldedClos(2, 6, 4)
	// Only 5 healthy switches < one configuration (6): must error on a
	// pattern with cross-switch pairs.
	r, err := routing.NewAvoidingAdaptive(f, mustView(t, f, topology.FailureSet{Tops: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(permutation.SwitchShift(2, 4, 1)); err == nil {
		t.Fatal("expected healthy-exhausted error")
	}
	// A purely local pattern still routes.
	local, err := permutation.FromPairs(f.Ports(), []permutation.Pair{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(local); err != nil {
		t.Fatal(err)
	}
}

// On an empty view the shared plan and top-mapping body must make the
// avoiding router's assignment identical to the healthy Route.
func TestAvoidingAdaptiveEmptyViewMatchesRoute(t *testing.T) {
	f := topology.NewFoldedClos(3, 9, 9)
	ad, err := routing.NewNonblockingAdaptive(f)
	if err != nil {
		t.Fatal(err)
	}
	av, err := routing.NewAvoidingAdaptive(f, mustView(t, f, topology.FailureSet{}))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p := permutation.Random(rng, f.Ports())
		a, err := ad.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := av.Route(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.PathSets, b.PathSets) {
			t.Fatalf("trial %d: avoiding adaptive on an empty view diverged from Route", trial)
		}
	}
}

func TestSparedDeterministicSurvivesFailures(t *testing.T) {
	// m = n² + 3 spares; fail 3 class switches: still exactly nonblocking.
	n, r := 3, 7
	f := topology.NewFoldedClos(n, n*n+3, r)
	view := mustView(t, f, topology.FailureSet{Tops: []int{0, 4, 8}})
	sp, err := routing.NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	requireHealthyPaths(t, sp, f, view)
	res, err := analysis.CheckLemma1AllPairs(sp, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatalf("spared scheme not nonblocking: %+v", res.Violation)
	}
}

func TestSparedDeterministicFailedSpare(t *testing.T) {
	// A failed spare must be skipped when remapping.
	n := 2
	f := topology.NewFoldedClos(n, n*n+2, 5)
	view := mustView(t, f, topology.FailureSet{Tops: []int{1, 4}}) // class 1 and the first spare
	sp, err := routing.NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	requireHealthyPaths(t, sp, f, view)
	res, err := analysis.CheckLemma1AllPairs(sp, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatal("failed spare mishandled")
	}
}

func TestSparedDeterministicExhaustsSpares(t *testing.T) {
	n := 2
	f := topology.NewFoldedClos(n, n*n+1, 5)
	// Two failures, one spare.
	if _, err := routing.NewSparedDeterministicView(f, mustView(t, f, topology.FailureSet{Tops: []int{0, 1}})); err == nil {
		t.Fatal("expected spare-exhausted error")
	}
	small := topology.NewFoldedClos(2, 3, 5)
	empty := mustView(t, small, topology.FailureSet{})
	if _, err := routing.NewSparedDeterministicView(small, empty); err == nil {
		t.Fatal("spared: m < n² accepted")
	}
	if _, err := routing.NewNaiveRemapView(small, empty); err == nil {
		t.Fatal("naive remap: m < n² accepted")
	}
}

// A single failed trunk leaves its class switch alive but not intact: the
// global schemes must treat the switch as failed, so the class moves to a
// spare and the switch counts as a failure in the exhaustion error.
func TestSparedDeterministicTrunkFailureMovesClass(t *testing.T) {
	n := 2
	f := topology.NewFoldedClos(n, n*n+1, 4) // one spare: top 4
	trunk := topology.FailureSet{Trunks: []topology.Trunk{{Bottom: 2, Top: 3}}}
	view := mustView(t, f, trunk)
	sp, err := routing.NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	// Class (1, 1) = top 3 now rides the spare, from every source switch.
	for _, pair := range [][2]int{{1, 3}, {5, 7}, {3, 5}} {
		if got := sp.TopChoice(pair[0], pair[1]); got != 4 {
			t.Fatalf("pair %d->%d: top %d, want spare 4", pair[0], pair[1], got)
		}
	}
	requireHealthyPaths(t, sp, f, view)
	res, err := analysis.CheckLemma1AllPairs(sp, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatalf("spared scheme not nonblocking after a trunk failure: %+v", res.Violation)
	}
	// With a class switch failed as well, the trunk-damaged switch is the
	// second failure and exhausts the single spare.
	both := trunk
	both.Tops = []int{0}
	_, err = routing.NewSparedDeterministicView(f, mustView(t, f, both))
	if err == nil || !strings.Contains(err.Error(), "2 failures exceed the 1 healthy spare") {
		t.Fatalf("error should count the trunk-damaged switch, got: %v", err)
	}
}

// The spared constructor's error must report the healthy spare count, not
// the provisioned one, when spares are themselves failed.
func TestSparedErrorReportsHealthySpares(t *testing.T) {
	n := 2
	f := topology.NewFoldedClos(n, n*n+2, 4) // 2 provisioned spares: 4, 5
	// Fail one spare and two class switches: 1 healthy spare < 2 classes.
	_, err := routing.NewSparedDeterministicView(f, mustView(t, f, topology.FailureSet{Tops: []int{0, 1, 5}}))
	if err == nil {
		t.Fatal("expected spare exhaustion error")
	}
	if !strings.Contains(err.Error(), "1 healthy spare") {
		t.Fatalf("error should name the 1 healthy spare, got: %v", err)
	}
	if !strings.Contains(err.Error(), "2 provisioned") {
		t.Fatalf("error should name the 2 provisioned spares, got: %v", err)
	}
}

func TestSparedDeterministicMechanics(t *testing.T) {
	f := topology.NewFoldedClos(2, 6, 4)
	sp, err := routing.NewSparedDeterministicView(f, mustView(t, f, topology.FailureSet{Tops: []int{2}}))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name() != "paper-deterministic-spared" {
		t.Fatal("name")
	}
	if _, err := sp.PathFor(-1, 0); err == nil {
		t.Fatal("range check missing")
	}
	p, err := sp.PathFor(3, 3)
	if err != nil || p.Len() != 0 {
		t.Fatal("self pair wrong")
	}
	p, err = sp.PathFor(0, 1)
	if err != nil || p.Len() != 2 {
		t.Fatal("local pair wrong")
	}
	a, err := sp.Route(permutation.SwitchShift(2, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Check(a).HasContention() {
		t.Fatal("spared route contends")
	}
}

func TestNaiveRemapViolatesLemma1(t *testing.T) {
	// Folding a failed class onto a neighbour class's switch merges two
	// classes and must produce a Lemma-1 violation and a real blocking
	// permutation.
	n := 2
	f := topology.NewFoldedClos(n, n*n, 5)
	nr, err := routing.NewNaiveRemapView(f, mustView(t, f, topology.FailureSet{Tops: []int{1}}))
	if err != nil {
		t.Fatal(err)
	}
	if nr.Name() != "paper-deterministic-naive-remap" {
		t.Fatal("name")
	}
	res, err := analysis.CheckLemma1AllPairs(nr, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if res.Nonblocking {
		t.Fatal("naive remap reported nonblocking")
	}
	w, err := analysis.BlockingWitness(res, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	a, err := nr.Route(w)
	if err != nil {
		t.Fatal(err)
	}
	if !analysis.Check(a).HasContention() {
		t.Fatal("witness does not block")
	}
	// No failures: identical to the exact scheme, still nonblocking.
	clean, err := routing.NewNaiveRemapView(f, mustView(t, f, topology.FailureSet{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err = analysis.CheckLemma1AllPairs(clean, f.Ports())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Nonblocking {
		t.Fatal("no-failure remap should be nonblocking")
	}
	// All class switches failed: constructor refuses.
	if _, err := routing.NewNaiveRemapView(f, mustView(t, f, topology.FailureSet{Tops: []int{0, 1, 2, 3}})); err == nil {
		t.Fatal("total failure accepted")
	}
}
