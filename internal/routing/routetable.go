package routing

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/topology"
)

// ErrPatternDependent is returned by BuildRouteTable for routers whose
// per-pair paths may depend on the traffic pattern (adaptive, global
// rearrangeable): their link sets cannot be precomputed per pair, so
// verification must route every pattern from scratch.
var ErrPatternDependent = errors.New("routing: per-pair link sets are pattern-dependent and cannot be cached")

// ErrRouteTableTooLarge is returned (wrapped) by BuildRouteTable when the
// total (pair, link) incidence count exceeds what the int32 CSR offsets
// can address. Without the guard the offset would silently wrap negative
// and every later pair's span would read garbage; with it, callers fall
// back to the per-pattern oracle engines exactly as they do for
// pattern-dependent routers.
var ErrRouteTableTooLarge = errors.New("routing: route table exceeds int32 CSR offset range")

// maxRouteTableEntries is the largest (pair, link) incidence count the
// int32 offsets array can delimit. A variable so the overflow guard can be
// exercised in tests without materializing a >2 GiB table.
var maxRouteTableEntries = math.MaxInt32

// routeTableStartEpoch is the dedup scratch's initial generation counter —
// always zero outside tests, which raise it to force an epoch wrap within
// a small build.
var routeTableStartEpoch uint32

// RouteTable is a precomputed all-pairs link-set cache in CSR layout: one
// flat backing array of link IDs plus an offsets array indexed by
// src*hosts+dst, so the link set of any SD pair is a zero-allocation slice
// view obtained with two array reads and no routing work. It is the route
// layer of the incremental (delta) verification engine: exhaustive sweeps
// route each of the n×(n−1) pairs exactly once at table-build time instead
// of once per permutation.
//
// Per-pair lists are deduplicated at build time (a multipath set may cross
// the same link on several paths, but contention accounting loads each
// link once per pair — the §IV.B rule), so consumers may add and subtract
// span entries as ±1 load updates without epoch marks. Entry order is
// first-occurrence order of the underlying router's link stream.
//
// A RouteTable is immutable after construction and therefore safe for
// concurrent readers; parallel sweeps share one table across workers.
type RouteTable struct {
	hosts int
	// offs[s*hosts+d] .. offs[s*hosts+d+1] delimit pair (s, d)'s span in
	// links. Self-pairs and intra-host pairs occupy empty spans.
	offs     []int32
	links    []topology.LinkID
	numLinks int
	name     string
}

// pairLinkAppendFunc adapts r to the AppendPairLinks shape, preferring the
// allocation-free PairLinkAppender fast path and falling back to
// materialized PathsFor/PathFor output (build-time only, so the
// allocations are paid once). Routers implementing none of the pairwise
// interfaces are pattern-dependent by contract and are rejected.
func pairLinkAppendFunc(r Router) (func(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error), error) {
	switch rr := r.(type) {
	case PairLinkAppender:
		return rr.AppendPairLinks, nil
	case MultiPairRouter:
		return func(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
			paths, err := rr.PathsFor(src, dst)
			if err != nil {
				return buf, err
			}
			for _, p := range paths {
				buf = append(buf, p.Links...)
			}
			return buf, nil
		}, nil
	case PairRouter:
		return func(src, dst int, buf []topology.LinkID) ([]topology.LinkID, error) {
			p, err := rr.PathFor(src, dst)
			if err != nil {
				return buf, err
			}
			return append(buf, p.Links...), nil
		}, nil
	}
	return nil, ErrPatternDependent
}

// BuildRouteTable precomputes every SD pair's deduplicated link set for a
// router with pattern-independent paths (PairLinkAppender, MultiPairRouter
// or PairRouter — checked in that order). It returns ErrPatternDependent
// for routers with none of those interfaces, and the first per-pair
// routing failure, in ascending (src, dst) order, wrapped exactly as the
// routing layer wraps it ("routing pair s->d: ...").
func BuildRouteTable(r Router, hosts int) (*RouteTable, error) {
	if hosts < 0 {
		return nil, fmt.Errorf("routing: negative host count %d", hosts)
	}
	appendLinks, err := pairLinkAppendFunc(r)
	if err != nil {
		return nil, err
	}
	t := &RouteTable{
		hosts: hosts,
		offs:  make([]int32, hosts*hosts+1),
		links: make([]topology.LinkID, 0, hosts*hosts*4),
		name:  r.Name(),
	}
	var buf []topology.LinkID
	dedup := epochSet{epoch: routeTableStartEpoch}
	idx := 0
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			buf, err = appendLinks(s, d, buf[:0])
			if err != nil {
				return nil, fmt.Errorf("routing pair %d->%d: %w", s, d, err)
			}
			dedup.clear()
			for _, l := range buf {
				if l < 0 {
					return nil, fmt.Errorf("routing pair %d->%d: invalid link id %d", s, d, l)
				}
				if !dedup.add(int(l)) {
					continue
				}
				t.links = append(t.links, l)
				if int(l)+1 > t.numLinks {
					t.numLinks = int(l) + 1
				}
			}
			if len(t.links) > maxRouteTableEntries {
				return nil, fmt.Errorf("routing pair %d->%d: %d entries: %w",
					s, d, len(t.links), ErrRouteTableTooLarge)
			}
			idx++
			t.offs[idx] = int32(len(t.links))
		}
	}
	return t, nil
}

// epochSet is a reusable set of small non-negative integers: seen[i] ==
// epoch marks i as a member of the current generation, so emptying the set
// is one counter increment instead of clearing the slice. Route-table builds
// use it to deduplicate a pair's links; the adaptive planner uses it to find
// the first pair per partition key.
type epochSet struct {
	seen  []uint32
	epoch uint32
}

// clear opens a fresh, empty generation. When the epoch counter wraps at
// 2^32 the zero value would alias every never-seen entry (and any entry
// last marked exactly 2^32 generations ago), so the scratch is cleared and
// the epoch restarts at 1 — the same state as a fresh scratch.
func (d *epochSet) clear() {
	d.epoch++
	if d.epoch == 0 {
		for i := range d.seen {
			d.seen[i] = 0
		}
		d.epoch = 1
	}
}

// add inserts i into the current generation and reports whether it was
// absent. i must be non-negative.
func (d *epochSet) add(i int) bool {
	if i >= len(d.seen) {
		grown := make([]uint32, i+1)
		copy(grown, d.seen)
		d.seen = grown
	}
	if d.seen[i] == d.epoch {
		return false
	}
	d.seen[i] = d.epoch
	return true
}

// Hosts reports the endpoint count the table was built for.
func (t *RouteTable) Hosts() int { return t.hosts }

// NumLinks is one past the largest link ID any pair references — the size
// consumers need for flat per-link state (zero when no pair crosses any
// link).
func (t *RouteTable) NumLinks() int { return t.numLinks }

// RouterName identifies the routing scheme the table caches.
func (t *RouteTable) RouterName() string { return t.name }

// Entries reports the total number of (pair, link) incidences stored.
func (t *RouteTable) Entries() int { return len(t.links) }

// PairLinks returns pair (src, dst)'s deduplicated link set as a view into
// the shared backing array. The slice must not be modified. Indices are
// unchecked beyond the usual slice bounds: both must be in [0, Hosts()).
func (t *RouteTable) PairLinks(src, dst int) []topology.LinkID {
	i := src*t.hosts + dst
	return t.links[t.offs[i]:t.offs[i+1]]
}
