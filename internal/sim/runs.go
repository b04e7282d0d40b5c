package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Many-run entry points. Every router in this repository is safe for
// concurrent Route/PathFor calls (routing state is per-call) and each
// simulation run owns its event core, so trials and sweep points run on a
// plain worker pool. Randomness is drawn on the caller's goroutine in run
// order (the trial permutations) or re-seeded per run (the injection
// processes), and results merge in run order, so each function's output —
// including the reported error, always the lowest-index one — is the same
// at every worker count.

// forEachOrdered calls run(i, x) with x = draw(i, prev) for every i in
// [0, n) and returns the lowest-index error. workers = 1 runs the loop
// inline on the caller's goroutine and stops at the first error; otherwise
// `workers` goroutines (≤ 0 selects GOMAXPROCS) execute the runs. draw
// always runs on the caller's goroutine in index order, so a random stream
// it reads is consumed identically at every worker count. prev is the
// previous run's x when that run is over and may be refilled (the inline
// loop), and the zero T when it may still be in use (the pool).
func forEachOrdered[T any](n, workers int, draw func(i int, prev T) T, run func(i int, x T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		var x T
		for i := 0; i < n; i++ {
			x = draw(i, x)
			if err := run(i, x); err != nil {
				return err
			}
		}
		return nil
	}
	type job struct {
		i int
		x T
	}
	jobs := make(chan job)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				errs[j.i] = run(j.i, j.x)
			}
		}()
	}
	var zero T
	for i := 0; i < n; i++ {
		jobs <- job{i, draw(i, zero)}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunTrials routes and simulates `trials` seeded random full permutations
// (closed loop) on `workers` goroutines (≤ 0 selects GOMAXPROCS, 1 runs
// inline) and returns the per-trial results in trial order — the
// many-pattern counterpart of RunPermutation. A non-nil cfg.Collector
// turns metrics on: every trial runs with its own MetricsCollector and its
// Result carries that run's Metrics (aggregate with AggregateMetrics).
func RunTrials(net *topology.Network, r routing.Router, hosts, trials, workers int, seed int64, cfg Config) ([]*Result, error) {
	rng := rand.New(rand.NewSource(seed))
	results := make([]*Result, trials)
	err := forEachOrdered(trials, workers,
		func(_ int, p *permutation.Permutation) *permutation.Permutation { return randomInto(rng, p, hosts) },
		func(i int, p *permutation.Permutation) error {
			tcfg := cfg
			if cfg.Collector != nil {
				tcfg.Collector = NewMetricsCollector()
			}
			_, res, err := RunPermutation(net, r, p, tcfg)
			results[i] = res
			return err
		})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// LoadSweep runs OpenLoop at each offered load for a fixed permutation and
// router, producing the classic latency/throughput curve, on `workers`
// goroutines (≤ 0 selects GOMAXPROCS, 1 runs inline). Each point derives
// all randomness from its own seeded generator and points come back in
// rate order. pathsFor adapts any router (see PairPathsFunc and
// MultiPathsFunc) and must be safe for concurrent calls when workers ≠ 1;
// every adapter in this package is. A non-nil base.Collector turns metrics
// on: each point runs with its own MetricsCollector and keeps its Metrics.
func LoadSweep(net *topology.Network, pairs [][2]int, pathsFor func(s, d int) ([]topology.Path, error), rates []float64, workers int, base OpenLoopConfig) ([]LoadSweepPoint, error) {
	points := make([]LoadSweepPoint, len(rates))
	err := forEachOrdered(len(rates), workers,
		func(i int, _ float64) float64 { return rates[i] },
		func(i int, rate float64) error {
			cfg := base
			cfg.Rate = rate
			if base.Collector != nil {
				cfg.Collector = NewMetricsCollector()
			}
			res, err := OpenLoop(net, pairs, pathsFor, cfg)
			if err != nil {
				return err
			}
			points[i] = LoadSweepPoint{
				OfferedLoad:  rate,
				AcceptedLoad: res.AcceptedLoad,
				MeanLatency:  res.MeanLatency,
				P99Latency:   res.P99Latency,
				Saturated:    res.Saturated,
				Metrics:      res.Metrics,
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// CompareToCrossbarParallel simulates `trials` random permutations (seeded)
// under the router and reports slowdown statistics against the crossbar
// reference — the experiment behind the paper's motivation ([5], [7]) and
// its claim that nonblocking folded-Clos networks match crossbars. Each
// trial's network and crossbar-reference runs execute on one of `workers`
// goroutines (≤ 0 selects GOMAXPROCS, 1 runs inline) and the slowdowns
// accumulate in trial order, so the summary (every float included) is the
// same at every worker count.
func CompareToCrossbarParallel(net *topology.Network, r routing.Router, hosts, trials, workers int, seed int64, cfg Config) (*ThroughputSummary, error) {
	// The summary carries no metrics; drop any collector so the network and
	// crossbar-reference runs never share or clobber collector state.
	cfg.Collector = nil
	rng := rand.New(rand.NewSource(seed))
	slowdowns := make([]float64, trials)
	err := forEachOrdered(trials, workers,
		func(_ int, p *permutation.Permutation) *permutation.Permutation { return randomInto(rng, p, hosts) },
		func(i int, p *permutation.Permutation) error {
			_, res, err := RunPermutation(net, r, p, cfg)
			if err != nil {
				return err
			}
			ref, err := CrossbarReference(hosts, p, cfg)
			if err != nil {
				return err
			}
			slowdowns[i] = res.Slowdown(ref)
			return nil
		})
	if err != nil {
		return nil, err
	}
	sum := &ThroughputSummary{Patterns: trials}
	for _, s := range slowdowns {
		sum.MeanSlowdown += s
		sum.MeanRelThroughput += 1 / s
		if s > sum.MaxSlowdown {
			sum.MaxSlowdown = s
		}
	}
	if trials > 0 {
		sum.MeanSlowdown /= float64(trials)
		sum.MeanRelThroughput /= float64(trials)
		sort.Float64s(slowdowns)
		sum.MedianSlowdown = slowdowns[len(slowdowns)/2]
	}
	return sum, nil
}

// randomInto draws the next random full permutation over hosts endpoints
// into p, or into a new pattern when p is nil, consuming rng exactly as
// permutation.Random does.
func randomInto(rng *rand.Rand, p *permutation.Permutation, hosts int) *permutation.Permutation {
	if p == nil {
		return permutation.Random(rng, hosts)
	}
	permutation.RandomInto(rng, p)
	return p
}
