package analysis

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Exact worst-case contention for deterministic routing, in the spirit of
// the oblivious-performance-ratio analysis of [17]: for a single-path
// deterministic routing, the worst number of SD pairs a permutation can
// simultaneously place on link L equals the maximum matching of L's
// pair set viewed as a bipartite graph (sources × destinations) — a
// permutation may use each source and each destination at most once
// (Property 1), and conversely any source/destination-distinct subset
// extends to a permutation. Maximizing over links yields the routing's
// exact worst-case link load:
//
//   - 1 for a nonblocking routing (this is Lemma 1 restated: every link's
//     pair set has all-equal sources or all-equal destinations, so its
//     matching number is 1);
//   - ≥ 2 for every blocking routing, quantifying *how* blocking it is.

// WorstLoadResult reports the exact worst-case analysis.
type WorstLoadResult struct {
	// MaxLoad is the largest permutation-realizable load on any link.
	MaxLoad int
	// Link attains the maximum.
	Link topology.LinkID
	// PerLink maps every loaded link to its worst-case load.
	PerLink map[topology.LinkID]int
}

// WorstCaseLinkLoad routes all SD pairs of an N-host network under a
// single-path deterministic router and computes, per link, the maximum
// matching of its pair set — the exact worst-case number of permutation
// flows that can collide there.
func WorstCaseLinkLoad(r routing.PairRouter, hosts int) (*WorstLoadResult, error) {
	res, err := CheckLemma1AllPairs(r, hosts)
	if err != nil {
		return nil, err
	}
	return worstLoadFrom(res), nil
}

func worstLoadFrom(res *Lemma1Result) *WorstLoadResult {
	out := &WorstLoadResult{PerLink: make(map[topology.LinkID]int, len(res.Links)), Link: topology.NoLink}
	for id, view := range res.Links {
		load := len(maxMatching(view))
		out.PerLink[id] = load
		// Ties break toward the lowest link ID, so the attaining link does
		// not depend on map iteration order.
		if load > out.MaxLoad || (load == out.MaxLoad && out.Link != topology.NoLink && id < out.Link) {
			out.MaxLoad = load
			out.Link = id
		}
	}
	return out
}

// maxMatching computes a maximum matching of a link's SD pairs (sources
// left, destinations right) by augmenting paths — Kuhn's algorithm,
// adequate for per-link pair sets — and returns the matched pairs, which
// are source- and destination-distinct, in order of view.Dests.
func maxMatching(view *LinkSDView) []permutation.Pair {
	srcIdx := make(map[int]int, len(view.Sources))
	for i, s := range view.Sources {
		srcIdx[s] = i
	}
	dstIdx := make(map[int]int, len(view.Dests))
	for i, d := range view.Dests {
		dstIdx[d] = i
	}
	adj := make([][]int, len(view.Sources))
	for _, pr := range view.Pairs {
		si := srcIdx[pr.Src]
		adj[si] = append(adj[si], dstIdx[pr.Dst])
	}
	matchDst := make([]int, len(view.Dests))
	for i := range matchDst {
		matchDst[i] = -1
	}
	var try func(u int, seen []bool) bool
	try = func(u int, seen []bool) bool {
		for _, v := range adj[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			if matchDst[v] == -1 || try(matchDst[v], seen) {
				matchDst[v] = u
				return true
			}
		}
		return false
	}
	for u := range adj {
		try(u, make([]bool, len(view.Dests)))
	}
	var matched []permutation.Pair
	for v, u := range matchDst {
		if u != -1 {
			matched = append(matched, permutation.Pair{Src: view.Sources[u], Dst: view.Dests[v]})
		}
	}
	return matched
}

// WorstCasePermutationFor constructs a permutation realizing the
// worst-case load on the given link: the matched pairs of the link's
// maximum matching, which are source- and destination-distinct by
// construction. The returned pattern routes `load` pairs over one link.
func WorstCasePermutationFor(r routing.PairRouter, hosts int, link topology.LinkID) (*permutation.Permutation, error) {
	res, err := CheckLemma1AllPairs(r, hosts)
	if err != nil {
		return nil, err
	}
	view, ok := res.Links[link]
	if !ok {
		return nil, fmt.Errorf("analysis: link %d carries no SD pairs", link)
	}
	p := permutation.New(hosts)
	for _, pr := range maxMatching(view) {
		if err := p.Add(pr.Src, pr.Dst); err != nil {
			return nil, fmt.Errorf("analysis: matching not permutation-compatible: %w", err)
		}
	}
	return p, nil
}
