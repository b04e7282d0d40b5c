package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// This file holds the degraded-mode schemes: Routers over a
// topology.FailureView, the only way a router learns what failed, so the
// fault campaign and experiment E11 drive all of them through the same
// sweep and simulation engines they use on healthy fabrics. The schemes
// separate the two routing classes sharply:
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
//     structure. NewSparedDeterministicView shows the fix: provision
//     m = n²+s and remap failed switches onto dedicated spares; it remains
//     nonblocking for up to s failures and blocks beyond.
//
// The global schemes (avoiding adaptive, spared deterministic, naive
// remap) pick one top switch per traffic class for every source switch at
// once, so they can only use switches whose entire trunk fan is healthy:
// a top with even one failed cable is treated as failed via
// view.TopIntact. That conservatism is what lets the resulting paths
// avoid failed links without per-pair link checks. The local-reroute
// scheme (localreroute.go) instead consults link health hop by hop.

// checkPairsAlive rejects patterns that use a detached host (a host whose
// bottom switch failed): no route of any kind exists for such a pair. It
// reports the first such pair in ascending source order.
func checkPairsAlive(view *topology.FailureView, p *permutation.Permutation) error {
	for s := 0; s < p.N(); s++ {
		d := p.Dst(s)
		if d == permutation.Unused {
			continue
		}
		if !view.HostAlive(s) || !view.HostAlive(d) {
			return fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", s, d)
		}
	}
	return nil
}

// pairCheckAlive is the per-pair form of checkPairsAlive for PairRouters.
func pairCheckAlive(view *topology.FailureView) func(src, dst int) error {
	return func(src, dst int) error {
		if !view.HostAlive(src) || !view.HostAlive(dst) {
			return fmt.Errorf("routing: pair %d->%d uses a detached host (failed bottom switch)", src, dst)
		}
		return nil
	}
}

// AvoidingAdaptive is NONBLOCKINGADAPTIVE over the intact top switches:
// configuration blocks are renumbered over them in ascending order and
// the pattern fails when it needs more of them than remain.
type AvoidingAdaptive struct {
	ad   *NonblockingAdaptive
	view *topology.FailureView
	// healthy lists the intact top switches in ascending order: the
	// renumbering configuration blocks are laid out over.
	healthy []int
}

// NewAvoidingAdaptive builds the degraded adaptive router for the failure
// view.
func NewAvoidingAdaptive(f *topology.FoldedClos, view *topology.FailureView) (*AvoidingAdaptive, error) {
	ad, err := NewNonblockingAdaptive(f)
	if err != nil {
		return nil, err
	}
	return &AvoidingAdaptive{ad: ad, view: view, healthy: view.IntactTops()}, nil
}

// Name returns "adaptive-avoiding".
func (r *AvoidingAdaptive) Name() string { return "adaptive-avoiding" }

// Route plans the pattern and materializes paths over intact top switches
// only.
func (r *AvoidingAdaptive) Route(p *permutation.Permutation) (*Assignment, error) {
	if err := checkPairsAlive(r.view, p); err != nil {
		return nil, err
	}
	return r.ad.route(p, r.healthy)
}

// AppendPatternLinks implements PatternLinkAppender: the links Route would
// assign, planned in the caller's scratch without building paths.
func (r *AvoidingAdaptive) AppendPatternLinks(p *permutation.Permutation, s *PatternLinks) error {
	if err := checkPairsAlive(r.view, p); err != nil {
		return err
	}
	return r.ad.appendPatternLinks(p, s, r.healthy)
}

// NewSparedDeterministicView builds the Theorem-3 scheme hardened with
// spare top switches, ftree(n+m, r) with m = n²+s. Traffic class (i, j)
// normally uses top switch i·n+j; when that switch is not intact the
// class moves, whole, to the next intact spare (switches ≥ n², in
// ascending order). Because each class still owns a private top switch,
// Lemma 1 is preserved and the network remains nonblocking for up to s
// failures. Pairs with a detached endpoint are rejected. It requires
// m ≥ n² and errors when the failures exhaust the spares (a class would
// have to share a switch, which provably blocks).
func NewSparedDeterministicView(f *topology.FoldedClos, view *topology.FailureView) (*FtreeSinglePath, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: spared scheme needs m >= n² (%d >= %d)", f.M, n2)
	}
	down := 0
	var spares []int
	for t := 0; t < f.M; t++ {
		switch {
		case !view.TopIntact(t):
			down++
		case t >= n2:
			spares = append(spares, t)
		}
	}
	healthySpares := len(spares)
	remap := make([]int, n2)
	for class := range remap {
		if view.TopIntact(class) {
			remap[class] = class
			continue
		}
		if len(spares) == 0 {
			// Report the spares actually available: failed spares don't
			// count, so f.M-n2 would overstate the budget whenever a
			// spare is itself failed.
			return nil, fmt.Errorf("routing: %d failures exceed the %d healthy spare top switches (%d provisioned)",
				down, healthySpares, f.M-n2)
		}
		remap[class] = spares[0]
		spares = spares[1:]
	}
	return classRemapRouter(f, view, "paper-deterministic-spared", remap), nil
}

// NewNaiveRemapView is the *broken* failure response the spared scheme
// exists to avoid, and the negative control every campaign includes: a
// class whose switch is not intact folds onto the next intact class
// switch in cyclic order, sharing it with that switch's own class. The
// result violates Lemma 1 and blocks. Pairs with a detached endpoint are
// rejected.
func NewNaiveRemapView(f *topology.FoldedClos, view *topology.FailureView) (*FtreeSinglePath, error) {
	n2 := f.N * f.N
	if f.M < n2 {
		return nil, fmt.Errorf("routing: naive remap needs m >= n²")
	}
	remap := make([]int, n2)
	for class := range remap {
		t := class
		for !view.TopIntact(t) {
			if t = (t + 1) % n2; t == class {
				return nil, fmt.Errorf("routing: every class switch failed")
			}
		}
		remap[class] = t
	}
	return classRemapRouter(f, view, "paper-deterministic-naive-remap", remap), nil
}

// classRemapRouter routes traffic class (i, j) = (src mod n, dst mod n)
// through top switch remap[i·n+j], rejecting pairs with a detached
// endpoint.
func classRemapRouter(f *topology.FoldedClos, view *topology.FailureView, name string, remap []int) *FtreeSinglePath {
	n := f.N
	return &FtreeSinglePath{
		F:          f,
		RouterName: name,
		TopChoice: func(src, dst int) int {
			return remap[(src%n)*n+dst%n]
		},
		PairCheck: pairCheckAlive(view),
	}
}
