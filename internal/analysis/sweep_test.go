package analysis

import (
	"context"
	"strings"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// sweep runs Sweep under context.Background and fails the test on a
// returned error.
func sweep(t testing.TB, r routing.Router, hosts int, spec SweepSpec) *SweepResult {
	t.Helper()
	res, _, err := Sweep(context.Background(), r, hosts, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// symSweep is sweep for SymBlock specs, returning the SymStats too.
func symSweep(t testing.TB, r routing.Router, hosts int, spec SweepSpec) (*SweepResult, *SymStats) {
	t.Helper()
	res, stats, err := Sweep(context.Background(), r, hosts, spec)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats
}

// sweepRandom is SweepRandomCtx under context.Background.
func sweepRandom(t testing.TB, r routing.Router, hosts, trials int, seed int64) *SweepResult {
	t.Helper()
	res, err := SweepRandomCtx(context.Background(), r, hosts, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// oracle hides r's route-table interfaces, so Sweep runs the per-pattern
// Checker engine — the scratch-rebuild reference the delta and symmetry
// engines are tested against.
func oracle(r routing.Router) routing.Router { return struct{ routing.Router }{r} }

// TestSweepSpecValidation pins the rejected spec combinations and the
// refused orbit ranges: each is an error, never a silent reinterpretation.
func TestSweepSpecValidation(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	r := routing.NewFullSpray(f)
	hosts := f.Ports()
	sym, err := permutation.NewBlockSymmetry(hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := sym.NecklaceCount()
	noop := func(int, int) {}
	for _, tc := range []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"prefix sharded", SweepSpec{Prefix: []int{0}, Sharded: true}, "unsupported"},
		{"prefix sym", SweepSpec{Prefix: []int{0}, SymBlock: 2}, "unsupported"},
		{"prefix orbits", SweepSpec{Prefix: []int{0}, Orbits: []int{0, 1}, SymBlock: 2}, "unsupported"},
		{"prefix out of range", SweepSpec{Prefix: []int{hosts}}, "out of range"},
		{"orbits without sym", SweepSpec{Orbits: []int{0, 1}}, "unsupported"},
		{"orbits sharded", SweepSpec{Orbits: []int{0, 1}, SymBlock: 2, Sharded: true}, "unsupported"},
		{"orbits first-blocked", SweepSpec{Orbits: []int{0, 1}, SymBlock: 2, FirstBlocked: true}, "unsupported"},
		{"orbits shape", SweepSpec{Orbits: []int{0, 1, 2}, SymBlock: 2}, "unsupported"},
		{"workers without sharded", SweepSpec{Workers: 2}, "unsupported"},
		{"sym first-blocked sharded", SweepSpec{SymBlock: 2, FirstBlocked: true, Sharded: true}, "unsupported"},
		{"sym first-blocked progress", SweepSpec{SymBlock: 2, FirstBlocked: true, Progress: noop}, "unsupported"},
		{"orbits past the end", SweepSpec{Orbits: []int{n, n + 1}, SymBlock: 2}, "outside"},
		{"orbits straddling the end", SweepSpec{Orbits: []int{0, n + 1}, SymBlock: 2}, "outside"},
		{"orbits negative", SweepSpec{Orbits: []int{-1, 1}, SymBlock: 2}, "outside"},
		{"orbits inapplicable", SweepSpec{Orbits: []int{0, 1}, SymBlock: 3}, "not applicable"},
	} {
		res, stats, err := Sweep(context.Background(), r, hosts, tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
			continue
		}
		if res == nil || res.Tested != 0 {
			t.Errorf("%s: result %+v alongside the error", tc.name, res)
		}
		if (stats != nil) != (tc.spec.SymBlock > 0) {
			t.Errorf("%s: SymStats %v for SymBlock %d", tc.name, stats, tc.spec.SymBlock)
		}
	}
	// The last range of the plan ends exactly at NecklaceCount.
	if _, _, err := Sweep(context.Background(), r, hosts, SweepSpec{Orbits: []int{n - 1, n}, SymBlock: 2}); err != nil {
		t.Fatalf("final orbit range refused: %v", err)
	}
}

// TestShardedFirstBlockedScansInOrder pins the Sharded+FirstBlocked
// contract behind the coordinator's witness re-derivation: the level-1
// shards are scanned in order and the sweep stops inside the first blocked
// one, so counters and witness equal a serial first-blocked scan of the
// prefix shards whatever Workers says.
func TestShardedFirstBlockedScansInOrder(t *testing.T) {
	f := topology.NewFoldedClos(2, 3, 3)
	for _, r := range []routing.Router{routing.NewFullSpray(f), routing.NewGreedyLocal(topology.NewFoldedClos(2, 1, 3))} {
		hosts := f.Ports()
		want := &SweepResult{}
		for d := 0; d < hosts && want.FirstBlocked == nil; d++ {
			res := sweep(t, r, hosts, SweepSpec{Prefix: []int{d}, FirstBlocked: true})
			want.Tested += res.Tested
			want.Blocked += res.Blocked
			want.MaxLinkLoad = max(want.MaxLinkLoad, res.MaxLinkLoad)
			want.FirstBlocked = res.FirstBlocked
		}
		if want.FirstBlocked == nil {
			t.Fatalf("%s: fixture does not block", r.Name())
		}
		for _, workers := range []int{0, 1, 4} {
			got := sweep(t, r, hosts, SweepSpec{Sharded: true, Workers: workers, FirstBlocked: true})
			sameSweepResult(t, r.Name(), got, want)
		}
	}
}
