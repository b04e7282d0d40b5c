package analysis

import (
	"fmt"
	"sort"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Symmetry-reduced exhaustive sweeps. A folded-Clos fabric's host
// relabelings (permutation.BlockSymmetry, the wreath product S_b ≀ S_r of
// within-switch and whole-switch permutations) conjugate permutation
// patterns into orbits along which every contention quantity is constant —
// provided the routing cooperates. A Sweep with SymBlock set (sweepSym in
// sweep.go) sweeps one canonical representative per orbit with the CSR
// delta checker, scales the counters by orbit size, and re-derives
// order-sensitive fields (FirstBlocked) by a targeted scan in the full
// engine's own enumeration order, so the SweepResult is byte-identical to
// the corresponding full sweep wherever both can run. When the symmetry
// argument does not hold — infeasible geometry, pattern-dependent routing,
// or a route table that fails the equivariance certificate — it falls
// back to the full engine, again byte-identically. This file holds the
// applicability gates and the equivariance certificate.
//
// Soundness rests on a per-pattern load-transport argument: if for a host
// relabeling g there is a link bijection λ with T(g·s, g·d) = λ(T(s, d))
// for every pair, then for any pattern p and its conjugate p' = g∘p∘g⁻¹,
// load_{p'}(λl) = load_p(l) — the load multiset, the maximum load, and
// blockedness are all invariant. Such a λ exists iff the multiset of
// per-link pair neighborhoods {pairs routed over l} is preserved when all
// pairs are relabeled through g, which routeTableEquivariant checks
// exactly, per group generator (the condition composes: λ_{gh} = λ_g∘λ_h,
// so generators suffice). Top-switch permutations never need checking —
// they are link relabelings absorbed into λ itself.

// SymStats reports how a symmetry-reduced sweep executed.
type SymStats struct {
	// Applied is true when the sweep ran over orbit representatives;
	// false when it fell back to the full engine.
	Applied bool
	// Reason explains a fallback (empty when Applied).
	Reason string
	// Orbits counts the representatives tested when Applied.
	Orbits int
	// GroupOrder is |S_b ≀ S_r| when the geometry was feasible.
	GroupOrder int
}

// SymApplicable reports whether a symmetry-reduced sweep would actually
// reduce (geometry feasible, route table cacheable, routing equivariant)
// without running anything. Coordinators call this before planning sym
// shards; the answer is deterministic in (router, hosts, blockSize), so
// identically configured workers always agree with it.
func SymApplicable(r routing.Router, hosts, blockSize int) *SymStats {
	_, _, stats, _ := prepareSym(r, hosts, blockSize)
	return stats
}

// prepareSym runs the three applicability gates and returns the symmetry
// group and route table on success; on failure stats.Reason names the
// gate and err mirrors it.
func prepareSym(r routing.Router, hosts, blockSize int) (*permutation.BlockSymmetry, *routing.RouteTable, *SymStats, error) {
	stats := &SymStats{}
	if err := permutation.SymFeasible(hosts, blockSize); err != nil {
		stats.Reason = err.Error()
		return nil, nil, stats, fmt.Errorf("analysis: symmetry reduction not applicable: %w", err)
	}
	sym, err := permutation.NewBlockSymmetry(hosts, blockSize)
	if err != nil {
		stats.Reason = err.Error()
		return nil, nil, stats, fmt.Errorf("analysis: symmetry reduction not applicable: %w", err)
	}
	stats.GroupOrder = sym.GroupOrder()
	table, err := routing.BuildRouteTable(r, hosts)
	if err != nil {
		stats.Reason = fmt.Sprintf("no pattern-independent route table: %v", err)
		return nil, nil, stats, fmt.Errorf("analysis: symmetry reduction not applicable: %s", stats.Reason)
	}
	if !routeTableEquivariant(table, sym.Generators()) {
		stats.Reason = fmt.Sprintf("routing %q is not equivariant under the block symmetry group", table.RouterName())
		return nil, nil, stats, fmt.Errorf("analysis: symmetry reduction not applicable: %s", stats.Reason)
	}
	stats.Applied = true
	return sym, table, stats, nil
}

// routeTableEquivariant checks, for every generator g, that relabeling
// all SD pairs through g permutes the per-link pair neighborhoods — the
// exact condition for a load-transporting link bijection λ_g to exist.
// Neighborhoods are compared as multisets of exact pair-index lists (both
// sides built in ascending pair order, so equal sets compare equally);
// no hashing, no false positives. The lists live in two flat CSR buffers
// reused across generators, so the whole certificate costs a handful of
// allocations instead of per-link append churn.
func routeTableEquivariant(t *routing.RouteTable, gens []*permutation.Permutation) bool {
	hosts := t.Hosts()
	numLinks := t.NumLinks()
	fwd := newPairCSR(numLinks, t.Entries())
	rel := newPairCSR(numLinks, t.Entries())
	for _, g := range gens {
		fwd.build(t, hosts, nil)
		rel.build(t, hosts, g)
		// Multiset equality of the per-link lists: order both sides'
		// links by list content ((length, lex) on pair indices) and
		// compare position by position.
		fwd.sortByContent()
		rel.sortByContent()
		for k := 0; k < numLinks; k++ {
			a := fwd.list(fwd.ord[k])
			b := rel.list(rel.ord[k])
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
	}
	return true
}

// pairCSR stores, for every link, the list of pair indices routed over it,
// in one flat buffer with per-link offsets — the reusable scratch behind
// routeTableEquivariant.
type pairCSR struct {
	off  []int32 // off[l]..off[l+1] bounds link l's list in data
	pos  []int32 // fill cursors during build
	data []int32 // pair indices, ascending within each link
	ord  []int   // link indices sorted by list content
}

func newPairCSR(numLinks, entries int) *pairCSR {
	return &pairCSR{
		off:  make([]int32, numLinks+1),
		pos:  make([]int32, numLinks),
		data: make([]int32, entries),
		ord:  make([]int, numLinks),
	}
}

// build fills the CSR with pair index s*hosts+d appended to every link of
// PairLinks(g(s), g(d)) (identity when g is nil), iterating pairs in
// ascending index order so each link's list comes out sorted.
func (c *pairCSR) build(t *routing.RouteTable, hosts int, g *permutation.Permutation) {
	for i := range c.pos {
		c.pos[i] = 0
	}
	forEachPair(t, hosts, g, func(_ int32, links []topology.LinkID) {
		for _, l := range links {
			c.pos[l]++
		}
	})
	c.off[0] = 0
	for l := 0; l < len(c.pos); l++ {
		c.off[l+1] = c.off[l] + c.pos[l]
		c.pos[l] = c.off[l]
	}
	forEachPair(t, hosts, g, func(idx int32, links []topology.LinkID) {
		for _, l := range links {
			c.data[c.pos[l]] = idx
			c.pos[l]++
		}
	})
}

func forEachPair(t *routing.RouteTable, hosts int, g *permutation.Permutation, fn func(idx int32, links []topology.LinkID)) {
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			rs, rd := s, d
			if g != nil {
				rs, rd = g.Dst(s), g.Dst(d)
			}
			fn(int32(s*hosts+d), t.PairLinks(rs, rd))
		}
	}
}

func (c *pairCSR) list(l int) []int32 { return c.data[c.off[l]:c.off[l+1]] }

func (c *pairCSR) sortByContent() {
	for i := range c.ord {
		c.ord[i] = i
	}
	sort.Slice(c.ord, func(i, j int) bool {
		a, b := c.list(c.ord[i]), c.list(c.ord[j])
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
