package routing

import (
	"fmt"

	"repro/internal/permutation"
	"repro/internal/topology"
)

// NonblockingAdaptive implements algorithm NONBLOCKINGADAPTIVE (Fig. 4 of
// the paper): local adaptive routing for ftree(n+m, r) that achieves
// nonblocking communication with m = O(n^(2−1/(2(c+1)))) top-level
// switches, where c is the smallest constant with r ≤ n^c.
//
// Bottom switches are numbered with c base-n digits s_{c−1}…s_0 and hosts
// with an extra low-order digit p. Top-level switches are organized into
// *configurations* of (c+1)·n switches, each split into c+1 *partitions*
// of n switches. Partition 0 of a configuration routes SD pairs keyed on
// the destination's local digit p; partition q ≥ 1 keys on
// (s_{q−1} − p) mod n. Every partition's keying is a Class-DIFF scheme
// (Lemma 4): two destinations in one switch always land on different top
// switches, so pairs from different source switches never contend
// (Lemma 3) and the algorithm only has to schedule pairs from the same
// switch, which it does greedily — per configuration, repeatedly routing
// the largest key-distinct subset on an unused partition (Lemma 5).
type NonblockingAdaptive struct {
	F *topology.FoldedClos
	// C is the number of base-n digits used for switch numbers.
	C int
	// FirstFit, when set, replaces the greedy largest-subset partition
	// choice (Fig. 4 line 7) with first-fit partition order — the
	// ablation showing the greedy step is what achieves the Theorem-5
	// bound.
	FirstFit bool
}

// NewNonblockingAdaptive builds the router for f, deriving c as the
// smallest integer with r ≤ n^c. It requires n ≥ 2 (with n = 1 every
// bottom switch has a single host and the trivial m = 1 deterministic
// routing is already nonblocking).
func NewNonblockingAdaptive(f *topology.FoldedClos) (*NonblockingAdaptive, error) {
	if f.N < 2 {
		return nil, fmt.Errorf("routing: NONBLOCKINGADAPTIVE needs n >= 2 (n=1 is nonblocking with m=1 deterministically)")
	}
	c := 1
	pw := f.N
	for pw < f.R {
		pw *= f.N
		c++
	}
	return &NonblockingAdaptive{F: f, C: c}, nil
}

// Name returns "nonblocking-adaptive" (or its first-fit ablation name).
func (r *NonblockingAdaptive) Name() string {
	if r.FirstFit {
		return "nonblocking-adaptive-firstfit"
	}
	return "nonblocking-adaptive"
}

// PartitionKey returns the §V key of destination host d under partition q:
// q = 0 keys on the local digit p; q ≥ 1 keys on (s_{q−1} − p) mod n.
// Within a partition, destinations with different keys may be routed
// concurrently (they use different top switches); destinations sharing a
// key must wait for another partition or configuration.
func (r *NonblockingAdaptive) PartitionKey(q, d int) int {
	n := r.F.N
	p := d % n
	if q == 0 {
		return p
	}
	w := d / n
	digit := w
	for i := 1; i < q; i++ {
		digit /= n
	}
	digit %= n
	return ((digit-p)%n + n) % n
}

// topIndex maps (configuration, partition, key) to a physical top-level
// switch index: configurations occupy consecutive blocks of (c+1)·n
// switches — the merge step of Fig. 4 lines 14–16, where corresponding
// partitions of every source switch's configuration share physical
// switches (safe by Lemma 4).
func (r *NonblockingAdaptive) topIndex(conf, q, key int) int {
	n := r.F.N
	return conf*(r.C+1)*n + q*n + key
}

// Plan runs the Fig. 4 scheduling and returns, for every SD pair, the top
// switch index it would use (−1 for intra-switch pairs that bypass the top
// level), along with the number of configurations consumed. Plan ignores
// the physical m, so experiments can measure how many top switches any
// permutation needs; Route enforces m.
func (r *NonblockingAdaptive) Plan(p *permutation.Permutation) (tops []int, pairs []permutation.Pair, confs int, err error) {
	var s PatternLinks
	confs, err = r.plan(p, &s)
	if err != nil {
		return nil, nil, 0, err
	}
	return s.tops, s.pairs, confs, nil
}

// plan is the Fig. 4 scheduling body behind Plan, Route,
// AppendPatternLinks and AvoidingAdaptive. It fills s.pairs with p's SD
// pairs in ascending source order and s.tops with each pair's logical top
// slot (−1 until the pair is routed, and for pairs that bypass the top
// level), and returns the configurations consumed. Every buffer comes from s, so planning is
// allocation-free once s has warmed up.
func (r *NonblockingAdaptive) plan(p *permutation.Permutation, s *PatternLinks) (int, error) {
	if p.N() != r.F.Ports() {
		return 0, fmt.Errorf("routing: pattern over %d endpoints, network has %d", p.N(), r.F.Ports())
	}
	n := r.F.N
	s.pairs, s.tops = s.pairs[:0], s.tops[:0]
	for src := 0; src < p.N(); src++ {
		if d := p.Dst(src); d != permutation.Unused {
			s.pairs = append(s.pairs, permutation.Pair{Src: src, Dst: d})
			s.tops = append(s.tops, -1)
		}
	}
	if cap(s.usedPart) < r.C+1 {
		s.usedPart = make([]bool, r.C+1)
	}
	usedPart := s.usedPart[:r.C+1]
	pairs, tops := s.pairs, s.tops
	maxConf := 0
	// Pairs ascend by source, so each source switch's pairs form one
	// contiguous run [lo, hi) (line 1 groups by source switch).
	for lo, hi := 0, 0; lo < len(pairs); lo = hi {
		v := pairs[lo].Src / n
		rem := s.rem[:0]
		for hi = lo; hi < len(pairs) && pairs[hi].Src/n == v; hi++ {
			if pairs[hi].Dst/n != v {
				rem = append(rem, hi)
			}
		}
		conf := 0
		for len(rem) > 0 {
			// Line 5: allocate a new configuration.
			clear(usedPart)
			for len(rem) > 0 {
				// Line 7: the largest key-distinct subset over unused
				// partitions (or the first unused partition in the
				// first-fit ablation); ties keep the lowest partition.
				bestQ, bestSize := -1, 0
				for q := 0; q <= r.C; q++ {
					if usedPart[q] {
						continue
					}
					s.keys.clear()
					size := 0
					for _, idx := range rem {
						if s.keys.add(r.PartitionKey(q, pairs[idx].Dst)) {
							size++
						}
					}
					if bestQ == -1 || size > bestSize {
						bestQ, bestSize = q, size
					}
					if r.FirstFit {
						break
					}
				}
				if bestQ == -1 {
					break // configuration exhausted (line 6)
				}
				// Lines 8–10: route the first pair of every key on the
				// chosen partition, mark it used, keep the rest.
				s.keys.clear()
				for _, idx := range rem {
					if k := r.PartitionKey(bestQ, pairs[idx].Dst); s.keys.add(k) {
						tops[idx] = r.topIndex(conf, bestQ, k)
					}
				}
				usedPart[bestQ] = true
				next := rem[:0]
				for _, idx := range rem {
					if tops[idx] < 0 {
						next = append(next, idx)
					}
				}
				rem = next
			}
			conf++
		}
		s.rem = rem
		if conf > maxConf {
			maxConf = conf
		}
	}
	return maxConf, nil
}

// planOver plans p into s and maps every logical top slot onto a physical
// top switch: the identity when healthy is nil, healthy[slot] otherwise
// (the ascending renumbering over a failure view's intact switches that
// AvoidingAdaptive routes on). It fails when the pattern needs more top
// switches than the mapping offers, and returns the configurations
// consumed and the top switches they need. It is the single plan and
// top-mapping body shared by the Assignment routes and AppendPatternLinks,
// so the two cannot drift apart.
func (r *NonblockingAdaptive) planOver(p *permutation.Permutation, s *PatternLinks, healthy []int) (confs, need int, err error) {
	confs, err = r.plan(p, s)
	if err != nil {
		return 0, 0, err
	}
	need = confs * (r.C + 1) * r.F.N
	if healthy == nil {
		if need > r.F.M {
			return 0, 0, fmt.Errorf("routing: pattern needs %d top switches (%d configurations of %d), network has m=%d",
				need, confs, (r.C+1)*r.F.N, r.F.M)
		}
		return confs, need, nil
	}
	if need > len(healthy) {
		return 0, 0, fmt.Errorf("routing: pattern needs %d top switches, only %d healthy of m=%d",
			need, len(healthy), r.F.M)
	}
	for i, t := range s.tops {
		if t >= 0 {
			s.tops[i] = healthy[t]
		}
	}
	return confs, need, nil
}

// Route runs Plan and materializes paths, verifying that the physical
// network has enough top-level switches: m ≥ confs·(c+1)·n.
func (r *NonblockingAdaptive) Route(p *permutation.Permutation) (*Assignment, error) {
	return r.route(p, nil)
}

// route materializes a planned assignment over the top-switch mapping
// healthy (see planOver).
func (r *NonblockingAdaptive) route(p *permutation.Permutation, healthy []int) (*Assignment, error) {
	var s PatternLinks
	confs, need, err := r.planOver(p, &s, healthy)
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		Net:             r.F.Net,
		Pairs:           s.pairs,
		PathSets:        make([][]topology.Path, len(s.pairs)),
		Configurations:  confs,
		TopSwitchesUsed: need,
	}
	for i, pr := range s.pairs {
		if pr.Src == pr.Dst {
			a.PathSets[i] = selfPath(topology.NodeID(pr.Src))
			continue
		}
		// Intra-switch pairs keep top −1, which RouteVia ignores.
		a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), s.tops[i])}
	}
	return a, nil
}

// AppendPatternLinks implements PatternLinkAppender: the links Route
// would assign, planned in the caller's scratch without building paths.
func (r *NonblockingAdaptive) AppendPatternLinks(p *permutation.Permutation, s *PatternLinks) error {
	return r.appendPatternLinks(p, s, nil)
}

// appendPatternLinks plans p over the top-switch mapping healthy and
// writes every pair's links into s in pair order.
func (r *NonblockingAdaptive) appendPatternLinks(p *permutation.Permutation, s *PatternLinks, healthy []int) error {
	if _, _, err := r.planOver(p, s, healthy); err != nil {
		return err
	}
	s.links, s.offs = s.links[:0], append(s.offs[:0], 0)
	for i, pr := range s.pairs {
		if pr.Src != pr.Dst {
			s.links = r.F.AppendLinksVia(s.links, pr.Src, pr.Dst, s.tops[i])
		}
		s.offs = append(s.offs, len(s.links))
	}
	return nil
}

// RequiredM reports how many top-level switches the algorithm needs for
// pattern p: configurations·(c+1)·n.
func (r *NonblockingAdaptive) RequiredM(p *permutation.Permutation) (int, error) {
	_, _, confs, err := r.Plan(p)
	if err != nil {
		return 0, err
	}
	return confs * (r.C + 1) * r.F.N, nil
}

// GreedyLocal is the natural local adaptive baseline *without* the
// Class-DIFF guarantee: each source switch assigns its pairs to its
// least-used uplinks (ties toward lower top-switch indices), blind to what
// other switches choose. It spreads load well but two switches may steer
// pairs with different destinations in one switch through one top switch,
// so it is not nonblocking — the contrast motivating Lemma 3.
type GreedyLocal struct {
	F *topology.FoldedClos
}

// NewGreedyLocal builds the baseline router.
func NewGreedyLocal(f *topology.FoldedClos) *GreedyLocal { return &GreedyLocal{F: f} }

// Name returns "greedy-local".
func (r *GreedyLocal) Name() string { return "greedy-local" }

// Route assigns, per source switch independently, each cross-switch pair
// to the top switch whose uplink from this switch carries the fewest pairs
// so far.
func (r *GreedyLocal) Route(p *permutation.Permutation) (*Assignment, error) {
	if p.N() != r.F.Ports() {
		return nil, fmt.Errorf("routing: pattern over %d endpoints, network has %d", p.N(), r.F.Ports())
	}
	pairs := p.Pairs()
	a := &Assignment{Net: r.F.Net, Pairs: pairs, PathSets: make([][]topology.Path, len(pairs))}
	n := r.F.N
	load := make(map[int][]int) // source switch -> per-top uplink load
	for i, pr := range pairs {
		switch {
		case pr.Src == pr.Dst:
			a.PathSets[i] = selfPath(topology.NodeID(pr.Src))
		case pr.Src/n == pr.Dst/n:
			a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), 0)}
		default:
			v := pr.Src / n
			ld := load[v]
			if ld == nil {
				ld = make([]int, r.F.M)
				load[v] = ld
			}
			best := 0
			for t := 1; t < r.F.M; t++ {
				if ld[t] < ld[best] {
					best = t
				}
			}
			ld[best]++
			a.PathSets[i] = []topology.Path{r.F.RouteVia(topology.NodeID(pr.Src), topology.NodeID(pr.Dst), best)}
		}
	}
	return a, nil
}
