// Package analysis judges routing assignments against the paper's
// definitions: link-level contention (Definition 2), the Lemma-1
// one-source-or-one-destination link predicate that characterizes
// nonblocking single-path deterministic routing, exhaustive and randomized
// nonblocking verification sweeps, the Lemma-2 maximum-pairs-per-root
// search, and Monte-Carlo blocking probability estimation.
package analysis

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Cancellation support. The sweep engines poll ctx.Done() with a strided
// counter so the per-pattern hot loop pays at most one nil check per
// pattern when the context cannot be cancelled (Done() == nil, e.g.
// context.Background()) and one cheap masked increment otherwise: the
// delta engine processes a pattern in tens of nanoseconds, so calling
// ctx.Err() per pattern would dominate the sweep.

// cancelCheckMask strides context polls to every 4096 patterns — frequent
// enough that cancellation lands within microseconds, rare enough to be
// invisible in the per-pattern cost.
const cancelCheckMask = 1<<12 - 1

// sweepCanceller is the strided poll state shared by the sweep loops.
type sweepCanceller struct {
	done <-chan struct{}
	tick uint
}

func newSweepCanceller(ctx context.Context) sweepCanceller {
	return sweepCanceller{done: ctx.Done()}
}

// cancelled reports whether the context fired, polling only every
// cancelCheckMask+1 calls.
func (c *sweepCanceller) cancelled() bool {
	if c.done == nil {
		return false
	}
	c.tick++
	if c.tick&cancelCheckMask != 0 {
		return false
	}
	return c.fired()
}

// fired reports, without striding, whether the context fired.
func (c *sweepCanceller) fired() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Report is the contention analysis of one routed pattern.
type Report struct {
	// Assignment is the analyzed routing output.
	Assignment *routing.Assignment
	// LinkPairs maps every loaded link to the indices (into
	// Assignment.Pairs) of the SD pairs whose path sets traverse it.
	LinkPairs map[topology.LinkID][]int
	// Contended lists links carrying two or more SD pairs, ascending.
	Contended []topology.LinkID
	// MaxLoad is the largest number of SD pairs sharing one link.
	MaxLoad int
}

// Check computes the link loads of an assignment. A link is contended when
// packets of two different SD pairs of the pattern may cross it
// (Definition 2); for multipath assignments every path in a pair's set
// counts, per the §IV.B timing argument. Check is the one-shot wrapper
// around Checker; loops over many patterns should reuse one Checker
// instead, which does O(1) allocations per pattern.
func Check(a *routing.Assignment) *Report {
	c := NewChecker(a.Net)
	c.Analyze(a)
	return c.Report()
}

// HasContention reports whether any link carries two or more SD pairs.
func (r *Report) HasContention() bool { return len(r.Contended) > 0 }

// ContentionError formats the first contended link with its pairs, or
// returns nil.
func (r *Report) ContentionError() error {
	if !r.HasContention() {
		return nil
	}
	l := r.Contended[0]
	lk := r.Assignment.Net.Link(l)
	msg := fmt.Sprintf("link %d (%s -> %s) carries %d SD pairs:",
		l, r.Assignment.Net.Node(lk.From).Label, r.Assignment.Net.Node(lk.To).Label, len(r.LinkPairs[l]))
	for _, i := range r.LinkPairs[l] {
		msg += fmt.Sprintf(" %d->%d", r.Assignment.Pairs[i].Src, r.Assignment.Pairs[i].Dst)
	}
	return fmt.Errorf("analysis: %s", msg)
}

// LinkSDView describes the traffic crossing one link of an all-pairs
// routing — the accounting illustrated by Fig. 3 of the paper.
type LinkSDView struct {
	Link topology.LinkID
	// Pairs are the SD pairs routed over the link.
	Pairs []permutation.Pair
	// Sources and Dests are the distinct endpoints among Pairs.
	Sources, Dests []int
}

// OneSourceOrOneDest reports the Lemma-1 predicate for this link: all
// pairs share a source, or all share a destination.
func (v *LinkSDView) OneSourceOrOneDest() bool {
	return len(v.Sources) <= 1 || len(v.Dests) <= 1
}

// Lemma1Result is the outcome of checking a single-path deterministic
// routing against Lemma 1 over all SD pairs of the network.
type Lemma1Result struct {
	// Nonblocking is true when every link satisfies the predicate, which
	// by Lemma 1 is equivalent to the routing being nonblocking.
	Nonblocking bool
	// Violation, when not nonblocking, identifies a link together with
	// two pairs with distinct sources and destinations crossing it; by
	// the Lemma-1 necessity argument these two pairs form a permutation
	// that blocks.
	Violation *LinkSDView
	// Links holds the per-link view of every loaded link.
	Links map[topology.LinkID]*LinkSDView
}

// CheckLemma1AllPairs routes every SD pair (s ≠ d) of an N-host network
// with a single-path deterministic router and evaluates Lemma 1: the
// routing is nonblocking if and only if each link carries traffic either
// from one source or to one destination. This is an *exact* nonblocking
// decision procedure for deterministic routing — no permutation
// enumeration needed.
func CheckLemma1AllPairs(r routing.PairRouter, hosts int) (*Lemma1Result, error) {
	res := &Lemma1Result{Nonblocking: true, Links: make(map[topology.LinkID]*LinkSDView)}
	for s := 0; s < hosts; s++ {
		for d := 0; d < hosts; d++ {
			if s == d {
				continue
			}
			p, err := r.PathFor(s, d)
			if err != nil {
				return nil, fmt.Errorf("analysis: routing pair %d->%d: %w", s, d, err)
			}
			for _, l := range p.Links {
				v := res.Links[l]
				if v == nil {
					v = &LinkSDView{Link: l}
					res.Links[l] = v
				}
				v.Pairs = append(v.Pairs, permutation.Pair{Src: s, Dst: d})
				insertDistinct(&v.Sources, s)
				insertDistinct(&v.Dests, d)
			}
		}
	}
	for _, v := range res.Links {
		if !v.OneSourceOrOneDest() {
			res.Nonblocking = false
			if res.Violation == nil || v.Link < res.Violation.Link {
				res.Violation = v
			}
		}
	}
	return res, nil
}

func insertDistinct(s *[]int, x int) {
	for _, y := range *s {
		if y == x {
			return
		}
	}
	*s = append(*s, x)
}

// BlockingWitness extracts from a Lemma-1 violation a two-pair permutation
// that the routing blocks: two SD pairs with distinct sources and distinct
// destinations crossing the violated link (the constructive half of the
// Lemma-1 necessity proof).
func BlockingWitness(res *Lemma1Result, hosts int) (*permutation.Permutation, error) {
	if res.Nonblocking || res.Violation == nil {
		return nil, fmt.Errorf("analysis: routing is nonblocking; no witness exists")
	}
	v := res.Violation
	for i := 0; i < len(v.Pairs); i++ {
		for j := i + 1; j < len(v.Pairs); j++ {
			a, b := v.Pairs[i], v.Pairs[j]
			if a.Src != b.Src && a.Dst != b.Dst {
				return permutation.FromPairs(hosts, []permutation.Pair{a, b})
			}
		}
	}
	return nil, fmt.Errorf("analysis: internal error: violated link has no distinct-endpoint pair combination")
}

// SweepResult summarizes a nonblocking verification sweep over many
// permutations.
type SweepResult struct {
	// Tested counts patterns routed.
	Tested int
	// Blocked counts patterns with contention.
	Blocked int
	// FirstBlocked is a clone of the first contended pattern, nil if all
	// passed.
	FirstBlocked *permutation.Permutation
	// MaxLinkLoad is the worst per-link SD-pair count observed.
	MaxLinkLoad int
	// RouteErr records the first routing failure (e.g. adaptive routing
	// running out of top switches); sweeps stop at routing failures.
	RouteErr error
}

// Nonblocking reports whether every tested pattern routed without
// contention.
func (s *SweepResult) Nonblocking() bool { return s.Blocked == 0 && s.RouteErr == nil }

// SweepRandomCtx routes trials random full permutations (seeded) plus the
// structured patterns most hostile to fat-trees — switch shifts, local
// rotations, transpose and bit-reversal where the host count allows — and
// checks contention. ctx is polled between patterns (each pattern routes
// all its pairs, so the check is off the per-pair hot path) and a fired
// ctx stops the sweep, returning the partial result with ctx.Err().
func SweepRandomCtx(ctx context.Context, r routing.Router, hosts, trials int, seed int64) (*SweepResult, error) {
	res := &SweepResult{}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	done := ctx.Done()
	cancelled := false
	rng := rand.New(rand.NewSource(seed))
	c := NewChecker(nil)
	test := func(p *permutation.Permutation) bool {
		if done != nil {
			select {
			case <-done:
				cancelled = true
				return false
			default:
			}
		}
		if err := c.AnalyzePattern(r, p); err != nil {
			res.RouteErr = fmt.Errorf("analysis: pattern %s: %w", p, err)
			return false
		}
		res.Tested++
		if c.MaxLoad() > res.MaxLinkLoad {
			res.MaxLinkLoad = c.MaxLoad()
		}
		if c.HasContention() {
			res.Blocked++
			if res.FirstBlocked == nil {
				res.FirstBlocked = p.Clone()
			}
		}
		return true
	}
	finish := func() (*SweepResult, error) {
		if cancelled {
			return res, ctx.Err()
		}
		return res, nil
	}
	// One pattern and one scratch serve every random trial: test never
	// retains its argument (FirstBlocked is a clone), so refilling in
	// place keeps the per-trial loop allocation-free while consuming rng
	// exactly as the allocating generators would.
	p := permutation.New(hosts)
	scratch := permutation.NewPatternScratch(hosts)
	for i := 0; i < trials; i++ {
		permutation.RandomInto(rng, p)
		if !test(p) {
			return finish()
		}
	}
	for i := 0; i < trials/2; i++ {
		permutation.RandomPartialInto(rng, p, 0.25+rng.Float64()/2, scratch)
		if !test(p) {
			return finish()
		}
	}
	for k := 1; k < hosts && k <= 8; k++ {
		if !test(permutation.Shift(hosts, k)) {
			return finish()
		}
	}
	if hosts > 0 && hosts&(hosts-1) == 0 {
		if !test(permutation.BitReversal(hosts)) {
			return finish()
		}
	}
	for d := 2; d*d <= hosts; d++ {
		if hosts%d == 0 {
			if !test(permutation.Transpose(d, hosts/d)) {
				return finish()
			}
		}
	}
	test(permutation.Neighbor(hosts))
	return finish()
}

// BlockingProbability estimates, over trials seeded random full
// permutations, the fraction that suffer contention under the router, and
// the mean of the worst per-link load — the blocking-probability metric
// the related work optimizes ([6], [9], [15], [17]).
func BlockingProbability(r routing.Router, hosts, trials int, seed int64) (blockFrac, meanMaxLoad float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	c := NewChecker(nil)
	blocked, loadSum := 0, 0
	for i := 0; i < trials; i++ {
		p := permutation.Random(rng, hosts)
		if rerr := c.AnalyzePattern(r, p); rerr != nil {
			return 0, 0, rerr
		}
		if c.HasContention() {
			blocked++
		}
		loadSum += c.MaxLoad()
	}
	if trials == 0 {
		return 0, 0, nil
	}
	return float64(blocked) / float64(trials), float64(loadSum) / float64(trials), nil
}
