package analysis

import (
	"testing"

	"repro/internal/conditions"
	"repro/internal/permutation"
)

func TestMaxRootPairsModesMatchesNaive(t *testing.T) {
	// Cross-validate the canonical-mode search against the direct
	// branch-and-bound over pair subsets on every tractable instance.
	cases := []struct{ n, r int }{
		{1, 2}, {1, 3}, {1, 4}, {2, 2}, {2, 3}, {3, 2}, {2, 1},
	}
	for _, c := range cases {
		modes := MaxRootPairsModes(c.n, c.r)
		naive := MaxRootPairsNaive(c.n, c.r)
		if modes != naive {
			t.Errorf("n=%d r=%d: modes=%d naive=%d", c.n, c.r, modes, naive)
		}
	}
	if MaxRootPairsModes(2, 1) != 0 {
		t.Error("r=1 has no cross-switch pairs, want 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid instance n=0 should panic")
		}
	}()
	MaxRootPairsModes(0, 2)
}

func TestMaxRootPairsAgainstLemma2Cap(t *testing.T) {
	// The paper's closed-form caps must upper-bound the exact maximum,
	// and be attained exactly when r ≥ 2n+1.
	for n := 1; n <= 3; n++ {
		for r := 2; r <= 6; r++ {
			got := MaxRootPairsModes(n, r)
			cap := conditions.Lemma2Cap(n, r)
			if got > cap {
				t.Errorf("n=%d r=%d: exact %d exceeds Lemma-2 cap %d", n, r, got, cap)
			}
			if r >= 2*n+1 && got != r*(r-1) {
				t.Errorf("n=%d r=%d: exact %d, want r(r-1)=%d (tight branch)", n, r, got, r*(r-1))
			}
		}
	}
}

func TestMaxRootPairsSmallTopBranchIsLoose(t *testing.T) {
	// For r < 2n+1 the 2nr bound is strictly loose in general: record
	// exact values so EXPERIMENTS.md can report them. (A looser cap only
	// strengthens Theorem 1, which divides by it.)
	type row struct{ n, r, exact int }
	var rows []row
	for _, c := range []struct{ n, r int }{{2, 3}, {2, 4}, {3, 3}, {3, 4}, {3, 6}} {
		rows = append(rows, row{c.n, c.r, MaxRootPairsModes(c.n, c.r)})
	}
	for _, rw := range rows {
		cap := conditions.Lemma2Cap(rw.n, rw.r)
		if rw.exact > cap {
			t.Fatalf("n=%d r=%d exact %d > cap %d", rw.n, rw.r, rw.exact, cap)
		}
	}
	// Specific regression anchors (computed by both searches).
	if got := MaxRootPairsModes(2, 3); got != 8 {
		t.Errorf("n=2 r=3 exact = %d, want 8", got)
	}
	if got := MaxRootPairsModes(2, 4); got != 12 {
		t.Errorf("n=2 r=4 exact = %d, want 12", got)
	}
}

func TestMaxRootPairsClosedFormConjecture(t *testing.T) {
	// The exact search reveals a clean closed form the paper's Lemma 2
	// over-approximates in the small-r branch: the true maximum is
	// (r−1)·max(r, 2n) — equal to r(r−1) for r ≥ 2n (matching the
	// paper's tight branch) and 2n(r−1) for r ≤ 2n (the paper caps at
	// 2nr, loose by exactly 2n). Recorded in EXPERIMENTS.md E2.
	for n := 1; n <= 3; n++ {
		for r := 2; r <= 6; r++ {
			want := (r - 1) * maxOf(r, 2*n)
			if got := MaxRootPairsModes(n, r); got != want {
				t.Errorf("n=%d r=%d: exact %d, closed form (r−1)·max(r,2n) = %d", n, r, got, want)
			}
		}
	}
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestRootSetWitnessValidAndMaximal(t *testing.T) {
	for _, c := range []struct{ n, r int }{{1, 3}, {2, 3}, {2, 5}, {3, 4}, {3, 7}} {
		pairs := RootSetWitness(c.n, c.r)
		if err := CheckRootSet(c.n, c.r, pairs); err != nil {
			t.Errorf("n=%d r=%d: witness invalid: %v", c.n, c.r, err)
			continue
		}
		want := MaxRootPairsModes(c.n, c.r)
		if len(pairs) != want {
			t.Errorf("n=%d r=%d: witness size %d, want %d", c.n, c.r, len(pairs), want)
		}
	}
	if RootSetWitness(2, 1) != nil {
		t.Error("r=1 witness should be empty")
	}
}

func TestCheckRootSetRejections(t *testing.T) {
	if err := CheckRootSet(2, 3, []permutation.Pair{{Src: 0, Dst: 2}, {Src: 0, Dst: 2}}); err == nil {
		t.Fatal("duplicate pair accepted")
	}
	if err := CheckRootSet(2, 3, []permutation.Pair{{Src: 0, Dst: 1}}); err == nil {
		t.Fatal("intra-switch pair accepted")
	}
	if err := CheckRootSet(2, 3, []permutation.Pair{{Src: 0, Dst: 99}}); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
	// Uplink with two sources and two destinations.
	bad := []permutation.Pair{{Src: 0, Dst: 2}, {Src: 1, Dst: 4}}
	if err := CheckRootSet(2, 3, bad); err == nil {
		t.Fatal("uplink violation accepted")
	}
	// Downlink with two sources and two destinations.
	bad = []permutation.Pair{{Src: 0, Dst: 4}, {Src: 2, Dst: 5}}
	if err := CheckRootSet(2, 3, bad); err == nil {
		t.Fatal("downlink violation accepted")
	}
	// A clean single-source set passes.
	good := []permutation.Pair{{Src: 0, Dst: 2}, {Src: 0, Dst: 4}}
	if err := CheckRootSet(2, 3, good); err != nil {
		t.Fatal(err)
	}
}
