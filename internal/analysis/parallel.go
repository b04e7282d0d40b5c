package analysis

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// CheckLemma1AllPairsParallel is CheckLemma1AllPairs with the all-pairs
// routing sharded over `workers` goroutines by source host. The merged
// result is identical to the sequential one: per-link pair lists are
// assembled in (source, destination) order, and the reported violation and
// routing error are the sequential-order first. workers ≤ 0 selects
// GOMAXPROCS.
func CheckLemma1AllPairsParallel(r routing.PairRouter, hosts, workers int) (*Lemma1Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > hosts {
		workers = hosts
	}
	if workers <= 1 || hosts <= 1 {
		return CheckLemma1AllPairs(r, hosts)
	}
	type entry struct {
		link topology.LinkID
		dst  int
	}
	type shardOut struct {
		entries []entry
		err     error
	}
	outs := make([]shardOut, hosts)
	srcs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range srcs {
				o := &outs[s]
				for d := 0; d < hosts; d++ {
					if s == d {
						continue
					}
					p, err := r.PathFor(s, d)
					if err != nil {
						o.err = fmt.Errorf("analysis: routing pair %d->%d: %w", s, d, err)
						break
					}
					for _, l := range p.Links {
						o.entries = append(o.entries, entry{l, d})
					}
				}
			}
		}()
	}
	for s := 0; s < hosts; s++ {
		srcs <- s
	}
	close(srcs)
	wg.Wait()

	res := &Lemma1Result{Nonblocking: true, Links: make(map[topology.LinkID]*LinkSDView)}
	for s := 0; s < hosts; s++ {
		if outs[s].err != nil {
			return nil, outs[s].err
		}
		for _, e := range outs[s].entries {
			v := res.Links[e.link]
			if v == nil {
				v = &LinkSDView{Link: e.link}
				res.Links[e.link] = v
			}
			v.Pairs = append(v.Pairs, permutation.Pair{Src: s, Dst: e.dst})
			insertDistinct(&v.Sources, s)
			insertDistinct(&v.Dests, e.dst)
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

// BlockingProbabilityParallel is BlockingProbability over a worker pool:
// `trials` random permutations are split across workers with per-worker
// derived seeds (seed+worker). The estimate is statistically equivalent to
// the sequential version but not bit-identical (different RNG streams).
func BlockingProbabilityParallel(r routing.Router, hosts, trials, workers int, seed int64) (blockFrac, meanMaxLoad float64, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	if workers <= 1 {
		return BlockingProbability(r, hosts, trials, seed)
	}
	type out struct {
		blocked, loadSum, trials int
		err                      error
	}
	outs := make([]out, workers)
	var wg sync.WaitGroup
	per := trials / workers
	extra := trials % workers
	for w := 0; w < workers; w++ {
		quota := per
		if w < extra {
			quota++
		}
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			frac, load, err := BlockingProbability(r, hosts, quota, seed+int64(w)*7919)
			if err != nil {
				outs[w].err = err
				return
			}
			outs[w].trials = quota
			outs[w].blocked = int(frac*float64(quota) + 0.5)
			outs[w].loadSum = int(load*float64(quota) + 0.5)
		}(w, quota)
	}
	wg.Wait()
	blocked, loadSum, total := 0, 0, 0
	for _, o := range outs {
		if o.err != nil {
			return 0, 0, o.err
		}
		blocked += o.blocked
		loadSum += o.loadSum
		total += o.trials
	}
	if total == 0 {
		return 0, 0, nil
	}
	return float64(blocked) / float64(total), float64(loadSum) / float64(total), nil
}

// MaxRootPairsModesParallel is MaxRootPairsModes parallelized over the
// first switch's uplink mode (r branches). Exact and identical to the
// sequential search.
func MaxRootPairsModesParallel(n, r, workers int) int {
	if n < 1 || r < 1 {
		panic(fmt.Sprintf("analysis: invalid Lemma-2 instance n=%d r=%d", n, r))
	}
	if r == 1 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Branches: first switch's mode is modeShared or DST(t), t ∈ [1, r)
	// (t = 0 is the switch itself, excluded).
	branches := make(chan int)
	best := make([]int, r+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			up := make([]int, r)
			for b := range branches {
				if b == 0 {
					up[0] = modeShared
				} else {
					up[0] = b // DST(b)
				}
				best[b] = lemma2SearchFrom(n, r, up, 1)
			}
		}()
	}
	for b := 0; b < r; b++ {
		branches <- b
	}
	close(branches)
	wg.Wait()
	max := 0
	for _, v := range best {
		if v > max {
			max = v
		}
	}
	return max
}

// lemma2SearchFrom explores uplink modes for switches v.. and returns the
// best total, with up[0..v) already fixed.
func lemma2SearchFrom(n, r int, up []int, v int) int {
	if v == r {
		total := 0
		for w := 0; w < r; w++ {
			bestW := 0
			for dw := -1; dw < r; dw++ {
				if dw == w {
					continue
				}
				s := 0
				for x := 0; x < r; x++ {
					if x != w {
						s += lemma2f(n, x, w, up[x], dw)
					}
				}
				if s > bestW {
					bestW = s
				}
			}
			total += bestW
		}
		return total
	}
	best := 0
	try := func() {
		if t := lemma2SearchFrom(n, r, up, v+1); t > best {
			best = t
		}
	}
	up[v] = modeShared
	try()
	for t := 0; t < r; t++ {
		if t == v {
			continue
		}
		up[v] = t
		try()
	}
	return best
}
