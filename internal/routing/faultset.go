package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// This file promotes the degraded-mode schemes to first-class Routers over
// a topology.FailureView, so the fault campaign can drive all of them
// through the same sweep and simulation engines it uses on healthy
// fabrics.
//
// The global schemes (avoiding adaptive, spared deterministic, naive
// remap) pick one top switch per traffic class for every source switch at
// once, so they can only use switches whose entire trunk fan is healthy:
// a top with even one failed cable is excluded via view.TopIntact. That
// conservatism is what lets the resulting paths avoid failed links without
// per-pair link checks. The local-reroute scheme (localreroute.go) instead
// consults link health hop by hop.

// topOutage returns the top switches a global scheme must avoid: failed
// switches plus switches with any failed incident trunk.
func topOutage(f *topology.FoldedClos, view *topology.FailureView) map[int]bool {
	failed := make(map[int]bool)
	for t := 0; t < f.M; t++ {
		if !view.TopIntact(t) {
			failed[t] = true
		}
	}
	return failed
}

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

// AvoidingAdaptive is NONBLOCKINGADAPTIVE's RouteAvoiding as a first-class
// Router: configuration blocks are renumbered over the intact top switches
// and the pattern fails when it needs more of them than remain.
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

// NewSparedDeterministicView builds the spared Theorem-3 scheme for a
// failure view: classes whose top switch is not intact move to healthy
// spares, and pairs with detached endpoints are rejected.
func NewSparedDeterministicView(f *topology.FoldedClos, view *topology.FailureView) (*SparedDeterministic, error) {
	sp, err := NewPaperDeterministicSpared(f, topOutage(f, view))
	if err != nil {
		return nil, err
	}
	sp.PairCheck = pairCheckAlive(view)
	return sp, nil
}

// NewNaiveRemapView builds the broken cyclic-fold remap for a failure
// view — the negative control every campaign includes.
func NewNaiveRemapView(f *topology.FoldedClos, view *topology.FailureView) (*FtreeSinglePath, error) {
	r, err := NewPaperDeterministicNaiveRemap(f, topOutage(f, view))
	if err != nil {
		return nil, err
	}
	r.PairCheck = pairCheckAlive(view)
	return r, nil
}
