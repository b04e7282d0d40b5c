package routing

import (
	"fmt"
	"sort"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// This file extends the paper's schemes to degraded networks — top-level
// switches marked failed — an extension the paper's framework supports
// naturally and that separates the two routing classes sharply:
//
//   - NONBLOCKINGADAPTIVE only needs *some* (c+1)·n healthy top switches
//     per configuration. Renumbering the healthy switches preserves the
//     Class-DIFF structure (the renumbering is one bijection shared by
//     every source switch), so the algorithm stays nonblocking as long as
//     enough healthy switches remain.
//
//   - The Theorem-3 deterministic scheme dedicates top switch (i, j) to
//     the (i, j) traffic class; a failure leaves its class unroutable, and
//     any static remap onto surviving switches merges two classes on one
//     switch, violating Lemma 1 — the scheme is brittle without spare
//     structure. NewPaperDeterministicSpared shows the fix: provision
//     m = n²+s and remap failed switches onto dedicated spares; it remains
//     nonblocking for up to s failures and blocks beyond.

// RouteAvoiding runs NONBLOCKINGADAPTIVE using only healthy top-level
// switches: configuration blocks are laid out over the healthy switches in
// ascending order. It fails when the pattern needs more healthy switches
// than remain.
func (r *NonblockingAdaptive) RouteAvoiding(p *permutation.Permutation, failed map[int]bool) (*Assignment, error) {
	return r.route(p, healthyTops(r.F.M, failed))
}

// healthyTops lists the top switches in [0, m) not in failed, ascending.
// The result is non-nil even when every switch failed: planOver reads nil
// as "no failures".
func healthyTops(m int, failed map[int]bool) []int {
	healthy := make([]int, 0, m)
	for t := 0; t < m; t++ {
		if !failed[t] {
			healthy = append(healthy, t)
		}
	}
	return healthy
}

// SparedDeterministic is the Theorem-3 scheme hardened with spare top
// switches: ftree(n+m, r) with m = n²+s. Traffic class (i, j) normally
// uses top switch i·n+j; when that switch is failed the class moves, whole,
// to a dedicated spare. Because each class still owns a private top switch,
// Lemma 1 is preserved and the network remains nonblocking for up to s
// simultaneous failures.
type SparedDeterministic struct {
	// FtreeSinglePath routes each cross-switch pair through its class's
	// remapped top switch; NewSparedDeterministicView adds a PairCheck
	// rejecting pairs whose endpoint host is detached by a bottom-switch
	// failure.
	*FtreeSinglePath
	// remap[class] is the physical top switch serving the class.
	remap []int
	// failures records the failed switch set the remap was built for.
	failures map[int]bool
}

// NewPaperDeterministicSpared builds the hardened router for the failure
// set. It requires m ≥ n² and errors when the failures exhaust the spares
// (a class would have to share a switch, which provably blocks).
func NewPaperDeterministicSpared(f *topology.FoldedClos, failed map[int]bool) (*SparedDeterministic, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: spared scheme needs m >= n² (%d >= %d)", f.M, n2)
	}
	// Spares are the switches beyond the first n², healthy ones first.
	var spares []int
	for t := n2; t < f.M; t++ {
		if !failed[t] {
			spares = append(spares, t)
		}
	}
	sort.Ints(spares)
	healthySpares := len(spares)
	remap := make([]int, n2)
	for class := 0; class < n2; class++ {
		if !failed[class] {
			remap[class] = class
			continue
		}
		if len(spares) == 0 {
			// Report the spares actually available: failed spares don't
			// count, so f.M-n2 would overstate the budget whenever a
			// spare is itself failed.
			return nil, fmt.Errorf("routing: %d failures exceed the %d healthy spare top switches (%d provisioned)",
				countTrue(failed), healthySpares, f.M-n2)
		}
		remap[class] = spares[0]
		spares = spares[1:]
	}
	cp := make(map[int]bool, len(failed))
	for k, v := range failed {
		if v {
			cp[k] = true
		}
	}
	n := f.N
	return &SparedDeterministic{
		FtreeSinglePath: &FtreeSinglePath{
			F:          f,
			RouterName: "paper-deterministic-spared",
			TopChoice: func(src, dst int) int {
				return remap[(src%n)*n+dst%n]
			},
		},
		remap:    remap,
		failures: cp,
	}, nil
}

func countTrue(m map[int]bool) int {
	c := 0
	for _, v := range m {
		if v {
			c++
		}
	}
	return c
}

// UsesFailedSwitch reports whether any remapped class lands on a failed
// switch (always false for a successfully constructed router; exposed for
// tests and diagnostics).
func (r *SparedDeterministic) UsesFailedSwitch() bool {
	for _, t := range r.remap {
		if r.failures[t] {
			return true
		}
	}
	return false
}

// NewPaperDeterministicNaiveRemap is the *broken* failure response the
// spared scheme exists to avoid: fold a failed class onto the next healthy
// switch in cyclic order, sharing it with that switch's own class. The
// result violates Lemma 1 and blocks — used by experiments to demonstrate
// why deterministic fault tolerance needs dedicated spares.
func NewPaperDeterministicNaiveRemap(f *topology.FoldedClos, failed map[int]bool) (*FtreeSinglePath, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: naive remap needs m >= n²")
	}
	healthyCount := 0
	for t := 0; t < n2; t++ {
		if !failed[t] {
			healthyCount++
		}
	}
	if healthyCount == 0 {
		return nil, fmt.Errorf("routing: every class switch failed")
	}
	n := f.N
	return &FtreeSinglePath{
		F:          f,
		RouterName: "paper-deterministic-naive-remap",
		TopChoice: func(src, dst int) int {
			t := (src%n)*n + dst%n
			for failed[t] {
				t = (t + 1) % n2
			}
			return t
		},
	}, nil
}
