package analysis

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/permutation"
	"repro/internal/routing"
)

// The exhaustive sweep: every full permutation of the hosts, routed and
// checked for contention — the ground-truth nonblocking verifier (Def. 1,
// Lemma 1). Sweep is the one entry point; a SweepSpec names the part of the
// space and the execution shape.
//
// Engine choice. Routers with pattern-independent per-pair paths
// (PairLinkAppender, MultiPairRouter or PairRouter) are swept by the delta
// engine: their link sets are precomputed once into a CSR
// routing.RouteTable, and a DeltaChecker updates contention state per Heap
// swap, O(path length) per pattern. Pattern-dependent routers, and any
// router whose table build fails, run the per-pattern Checker; a routing
// failure then stops the sweep and is reported in SweepResult.RouteErr, so
// results (routing-error reporting included) are the same either way.
// Tests reach the Checker engine for any router by wrapping it in
// struct{ routing.Router }, which hides the table interfaces.
//
// Enumeration order. A whole-space sweep runs in Heap order
// (permutation.EnumerateFullSwaps); a prefix shard runs Heap swaps over the
// free positions on the delta engine and lexicographic order on the
// Checker engine (permutation.EnumerateFullPrefixSeq[Swaps]). A Sharded
// sweep runs the n level-1 prefix shards on a worker pool and merges them
// in shard order, so its FirstBlocked is the first blocked pattern of the
// lowest blocked shard — a different, equally valid witness than the
// whole-space sweep's. Merging the shards of any PrefixShards plan in order
// (MergeShardSweeps) reproduces the Sharded counters exactly.
//
// Cancellation and progress. Every loop polls ctx on a stride of
// cancelCheckMask+1 patterns, outside the per-pattern accounting, and
// reports progress on the same stride; a fired ctx stops the sweep and
// Sweep returns the partial result with ctx.Err().

// ProgressFunc receives incremental sweep progress: the number of patterns
// tested and found blocked since the previous call from the same sweep
// goroutine. Sharded sweeps invoke one callback concurrently from every
// worker, so implementations must be safe for concurrent use (atomic adds
// are the intended shape); deltas from all workers sum to the final
// SweepResult counters. Callbacks run on the sweep hot path — keep them
// cheap and never block.
type ProgressFunc func(testedDelta, blockedDelta int)

// SweepSpec selects the part of the permutation space a Sweep covers and
// how it runs. The zero value sweeps every full permutation sequentially in
// Heap order. Combinations outside the ones documented per field are
// rejected with an error.
type SweepSpec struct {
	// Prefix restricts the sweep to one prefix shard
	// (permutation.PrefixShards): the full permutations whose sources
	// 0..len(Prefix)−1 send to Prefix. A repeated destination denotes an
	// empty shard; an out-of-range one is an error. Empty means the whole
	// space. Combines with FirstBlocked and Progress only.
	Prefix []int
	// Orbits, with SymBlock, restricts a symmetry-reduced sweep to the
	// orbits whose top-level necklace index lies in [Orbits[0], Orbits[1])
	// (permutation.BlockSymmetry.Shards). Counters are scaled by orbit
	// size; FirstBlocked is the range's first blocked representative, which
	// signals blockedness only. An inapplicable reduction or a range past
	// NecklaceCount is an error, not a fallback. Combines with Progress.
	Orbits []int
	// Sharded runs the level-1 prefix shards on Workers goroutines
	// (Workers ≤ 0 selects GOMAXPROCS) and merges them in shard order. With
	// FirstBlocked the shards are scanned in order on one goroutine and the
	// sweep stops inside the first blocked one. On a routing failure the
	// statistical fields are zeroed and RouteErr is the whole-space sweep's
	// first routing failure.
	Sharded bool
	Workers int
	// FirstBlocked stops at the first blocked pattern: Tested counts the
	// patterns examined up to and including it, and MaxLinkLoad covers only
	// those. A nonblocking router yields the full sweep's result.
	FirstBlocked bool
	// SymBlock > 0 reduces the sweep over the block symmetry group of a
	// fabric with SymBlock hosts per bottom switch: one representative per
	// orbit, counters scaled by orbit size, and FirstBlocked re-derived in
	// the full engine's order, so the result equals the unreduced sweep's.
	// Where the reduction does not apply the full engine runs instead and
	// SymStats.Reason says why. Sweep returns non-nil SymStats exactly when
	// SymBlock > 0.
	SymBlock int
	// Progress, if non-nil, receives tested/blocked deltas that sum to the
	// final counters (orbit-scaled under SymBlock). Not combinable with
	// SymBlock and FirstBlocked together.
	Progress ProgressFunc
}

func (s *SweepSpec) validate(hosts int) error {
	var bad string
	switch {
	case len(s.Prefix) > 0 && (s.Sharded || s.Orbits != nil || s.SymBlock > 0):
		bad = "Prefix with Sharded, Orbits or SymBlock"
	case s.Orbits != nil && (s.SymBlock <= 0 || s.Sharded || s.FirstBlocked):
		bad = "Orbits without SymBlock, or with Sharded or FirstBlocked"
	case s.Orbits != nil && len(s.Orbits) != 2:
		bad = fmt.Sprintf("Orbits of %d entries, want [lo, hi)", len(s.Orbits))
	case s.Workers != 0 && !s.Sharded:
		bad = "Workers without Sharded"
	case s.SymBlock > 0 && s.FirstBlocked && (s.Sharded || s.Progress != nil):
		bad = "SymBlock and FirstBlocked with Sharded or Progress"
	}
	if bad != "" {
		return fmt.Errorf("analysis: unsupported sweep spec: %s", bad)
	}
	for _, d := range s.Prefix {
		if d < 0 || d >= hosts {
			return fmt.Errorf("analysis: shard prefix %v out of range for %d hosts", s.Prefix, hosts)
		}
	}
	return nil
}

// Sweep routes the full permutations of hosts endpoints selected by spec
// (hosts! patterns for the whole space — practical up to hosts ≈ 10, or
// past that with SymBlock where the reduction applies) and checks each for
// contention. The returned error is a rejected spec, a refused Orbits
// range, or ctx.Err(); routing failures are data (SweepResult.RouteErr).
func Sweep(ctx context.Context, r routing.Router, hosts int, spec SweepSpec) (*SweepResult, *SymStats, error) {
	var stats *SymStats
	if spec.SymBlock > 0 {
		stats = &SymStats{}
	}
	if err := spec.validate(hosts); err != nil {
		return &SweepResult{}, stats, err
	}
	if err := ctx.Err(); err != nil {
		return &SweepResult{}, stats, err
	}
	if spec.SymBlock > 0 {
		return sweepSym(ctx, r, hosts, spec)
	}
	res, err := newSweeper(r, hosts).run(ctx, spec)
	return res, nil, err
}

// sweeper is one sweep's engine choice: table != nil selects the delta
// engine, nil the per-pattern Checker.
type sweeper struct {
	r     routing.Router
	hosts int
	table *routing.RouteTable
}

func newSweeper(r routing.Router, hosts int) sweeper {
	// A failed build (nil table) means a pattern-dependent router, a pair
	// that failed to route, or a table too large for the CSR offsets; the
	// Checker engine then reports the canonical routing error at the first
	// pattern exercising a failing pair, so the build error is not needed.
	table, _ := routing.BuildRouteTable(r, hosts)
	return sweeper{r: r, hosts: hosts, table: table}
}

func (s sweeper) run(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	if spec.Sharded && s.hosts > 1 {
		return s.sharded(ctx, spec)
	}
	res := &SweepResult{}
	t := newTally(ctx, res, spec)
	s.scan(&t, spec.Prefix)
	if t.cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

// scan enumerates one prefix shard (the whole space for an empty prefix)
// into t on the chosen engine.
func (s sweeper) scan(t *tally, prefix []int) {
	if s.table != nil {
		d := NewDeltaChecker(s.table)
		step := func(p *permutation.Permutation, i, j int) bool {
			if i < 0 {
				d.Reset(p)
			} else {
				d.Swap(i, j)
			}
			return t.record(1, d.MaxLoad(), d.HasContention()) || t.slow(p, d.HasContention())
		}
		if len(prefix) == 0 {
			permutation.EnumerateFullSwaps(s.hosts, step)
		} else {
			permutation.EnumerateFullPrefixSeqSwaps(s.hosts, prefix, step)
		}
	} else {
		c := NewChecker(nil)
		step := func(p *permutation.Permutation) bool {
			if err := c.AnalyzePattern(s.r, p); err != nil {
				t.res.RouteErr = fmt.Errorf("analysis: pattern %s: %w", p, err)
				t.halt()
				return false
			}
			return t.record(1, c.MaxLoad(), c.HasContention()) || t.slow(p, c.HasContention())
		}
		if len(prefix) == 0 {
			permutation.EnumerateFull(s.hosts, step)
		} else {
			permutation.EnumerateFullPrefixSeq(s.hosts, prefix, step)
		}
	}
	t.report()
}

// sharded fans the level-1 prefix shards over the worker pool. Each worker
// owns a tally and each shard scan its checker. A worker that stops
// (cancellation, a routing failure anywhere, or FirstBlocked's hit) drains
// the remaining shards so the feeder never blocks.
func (s sweeper) sharded(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if spec.FirstBlocked {
		workers = 1
	}
	shards := make(chan int)
	results := make([]SweepResult, s.hosts)
	var abort atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newTally(ctx, nil, spec)
			t.abort = &abort
			for shard := range shards {
				if t.halted || abort.Load() {
					continue
				}
				t.res, t.sent, t.watch = &results[shard], [2]int{}, true
				s.scan(&t, []int{shard})
			}
		}()
	}
	done := ctx.Done()
feed:
	for shard := 0; shard < s.hosts; shard++ {
		select {
		case shards <- shard:
		case <-done:
			break feed
		}
	}
	close(shards)
	wg.Wait()
	merged := MergeShardSweeps(results)
	if err := ctx.Err(); err != nil {
		return merged, err
	}
	if merged.RouteErr != nil {
		// Which patterns the other shards tested before seeing the abort
		// is a race, so the counters are discarded and the canonical
		// whole-space first routing failure is re-derived; it is
		// deterministic because every router's outcome depends only on
		// the pattern.
		seq, err := s.run(ctx, SweepSpec{})
		return &SweepResult{RouteErr: seq.RouteErr}, err
	}
	return merged, nil
}

// MergeShardSweeps folds per-shard sweep results, given in lexicographic
// prefix order, the way a Sharded sweep merges its level-1 shards: counts
// are exact sums, MaxLinkLoad is the max, FirstBlocked comes from the
// first (lowest-prefix) blocked shard, and RouteErr from the first shard
// reporting one. A merged RouteErr makes the statistical fields
// meaningless; the canonical error is then the first routing failure of a
// whole-space Sweep. Only the merge inside this package and the perfbench
// module use it; other callers fold shard reports themselves.
func MergeShardSweeps(results []SweepResult) *SweepResult {
	merged := &SweepResult{}
	for i := range results {
		sr := &results[i]
		merged.Tested += sr.Tested
		merged.Blocked += sr.Blocked
		if sr.MaxLinkLoad > merged.MaxLinkLoad {
			merged.MaxLinkLoad = sr.MaxLinkLoad
		}
		if merged.FirstBlocked == nil {
			merged.FirstBlocked = sr.FirstBlocked
		}
		if merged.RouteErr == nil {
			merged.RouteErr = sr.RouteErr
		}
	}
	return merged
}

// sweepSym runs a SymBlock sweep: orbit representatives where the
// reduction applies, the full engine otherwise.
func sweepSym(ctx context.Context, r routing.Router, hosts int, spec SweepSpec) (*SweepResult, *SymStats, error) {
	sym, table, stats, err := prepareSym(r, hosts, spec.SymBlock)
	res := &SweepResult{}
	if spec.Orbits != nil {
		if err != nil {
			return res, stats, err
		}
		lo, hi := spec.Orbits[0], spec.Orbits[1]
		if lo < 0 || hi < lo || hi > sym.NecklaceCount() {
			return res, stats, fmt.Errorf("analysis: orbit range [%d, %d) outside the %d necklace indices", lo, hi, sym.NecklaceCount())
		}
		return res, stats, sweepOrbits(ctx, sym, table, res, stats, spec, lo, hi)
	}
	if !stats.Applied {
		res, err := newSweeper(r, hosts).run(ctx, spec)
		return res, stats, err
	}
	if err := sweepOrbits(ctx, sym, table, res, stats, spec, 0, sym.NecklaceCount()); err != nil {
		return res, stats, err
	}
	full := sweeper{r: r, hosts: hosts, table: table}
	if !spec.FirstBlocked && res.Tested != permutation.CountFull(hosts) {
		// Defensive: the orbit enumeration failed to partition the space.
		// The counting property is heavily tested, so this is unreachable,
		// but a wrong certificate must never be served — discard and run
		// the full engine.
		stats.Applied = false
		stats.Reason = fmt.Sprintf("internal orbit-count mismatch: %d != %d!", res.Tested, hosts)
		spec.Progress = nil
		res, err := full.run(ctx, spec)
		return res, stats, err
	}
	if res.Blocked == 0 {
		return res, stats, nil
	}
	// Blocked: order-sensitive fields come from the full engine's own
	// enumeration order. Under FirstBlocked the whole result does — the
	// examined prefix (Tested, MaxLinkLoad) is not derivable from orbits —
	// and the scan stops at the first blocked pattern, whose existence the
	// orbit sweep just proved.
	if spec.FirstBlocked {
		res, err := full.run(ctx, spec)
		return res, stats, err
	}
	w, err := full.run(ctx, SweepSpec{Sharded: spec.Sharded, FirstBlocked: true})
	if err != nil {
		return res, stats, err
	}
	res.FirstBlocked = w.FirstBlocked
	return res, stats, nil
}

// sweepOrbits drives the delta checker over the representatives in
// [lo, hi), accumulating orbit-scaled counters into res.
func sweepOrbits(ctx context.Context, sym *permutation.BlockSymmetry, table *routing.RouteTable, res *SweepResult, stats *SymStats, spec SweepSpec, lo, hi int) error {
	d := NewDeltaChecker(table)
	t := newTally(ctx, res, spec)
	sym.OrbitsRange(lo, hi, func(rep *permutation.Permutation, orbit int) bool {
		d.Reset(rep)
		stats.Orbits++
		return t.record(orbit, d.MaxLoad(), d.HasContention()) || t.slow(rep, d.HasContention())
	})
	t.report()
	if t.cancelled {
		return ctx.Err()
	}
	return nil
}

// tally is one sweep goroutine's accounting: the counters of the shard it
// is scanning, the stride counter shared by cancellation polls and progress
// reports, and the stop flags.
type tally struct {
	poll      sweepCanceller
	res       *SweepResult
	firstOnly bool
	watch     bool // a blocked pattern takes the slow path: none kept yet, or firstOnly
	fn        ProgressFunc
	sent      [2]int       // tested, blocked already passed to fn
	abort     *atomic.Bool // routing failure in a sibling worker; nil when sequential
	halted    bool         // stop: ctx fired, routing failure, or first-blocked hit
	cancelled bool
}

func newTally(ctx context.Context, res *SweepResult, spec SweepSpec) tally {
	return tally{poll: newSweepCanceller(ctx), res: res, firstOnly: spec.FirstBlocked, watch: true, fn: spec.Progress}
}

// record accounts one tested pattern — weight patterns when it stands for
// an orbit — and reports whether the pattern is done with; when it is not
// (a blocked pattern to keep or stop at, or the stride's poll), the loop
// calls slow. Every loop runs `t.record(...) || t.slow(...)`: record has
// no call, so it inlines and the common pattern costs no call at all.
func (t *tally) record(weight, load int, contended bool) bool {
	res := t.res
	res.Tested += weight
	res.MaxLinkLoad = max(res.MaxLinkLoad, load)
	if contended {
		res.Blocked += weight
	}
	t.poll.tick++
	return t.poll.tick&cancelCheckMask != 0 && !(contended && t.watch)
}

// slow keeps a copy of the first blocked pattern (the enumerators reuse p
// between calls), stops a first-blocked sweep there, and on the stride
// reports progress and checks for cancellation and sibling aborts.
func (t *tally) slow(p *permutation.Permutation, contended bool) bool {
	if contended && t.watch {
		if t.res.FirstBlocked == nil {
			t.res.FirstBlocked = p.Clone()
		}
		t.watch = t.firstOnly
		if t.firstOnly {
			t.halted = true
			return false
		}
	}
	if t.poll.tick&cancelCheckMask != 0 {
		return true
	}
	t.report()
	if t.poll.fired() {
		t.cancelled, t.halted = true, true
		return false
	}
	if t.abort != nil && t.abort.Load() {
		t.halted = true
		return false
	}
	return true
}

// halt stops this goroutine after a routing failure and tells its
// siblings.
func (t *tally) halt() {
	t.halted = true
	if t.abort != nil {
		t.abort.Store(true)
	}
}

// report passes the counters accrued since the last report to fn.
func (t *tally) report() {
	if t.fn == nil {
		return
	}
	if dt, db := t.res.Tested-t.sent[0], t.res.Blocked-t.sent[1]; dt != 0 || db != 0 {
		t.fn(dt, db)
	}
	t.sent = [2]int{t.res.Tested, t.res.Blocked}
}

// The four wrappers below remain because the perfbench module calls them
// by name. Each is one Sweep call; no code in this module may use them —
// call Sweep.

// SweepExhaustiveCtx is Sweep with the zero SweepSpec.
func SweepExhaustiveCtx(ctx context.Context, r routing.Router, hosts int) (*SweepResult, error) {
	res, _, err := Sweep(ctx, r, hosts, SweepSpec{})
	return res, err
}

// SweepExhaustiveParallelCtx is Sweep with Sharded on workers goroutines.
func SweepExhaustiveParallelCtx(ctx context.Context, r routing.Router, hosts, workers int) (*SweepResult, error) {
	res, _, err := Sweep(ctx, r, hosts, SweepSpec{Sharded: true, Workers: workers})
	return res, err
}

// SweepShardCtx is Sweep over one Prefix shard.
func SweepShardCtx(ctx context.Context, r routing.Router, hosts int, prefix []int, fn ProgressFunc) (*SweepResult, error) {
	res, _, err := Sweep(ctx, r, hosts, SweepSpec{Prefix: prefix, Progress: fn})
	return res, err
}

// SweepExhaustiveSymCtx is Sweep with SymBlock = blockSize.
func SweepExhaustiveSymCtx(ctx context.Context, r routing.Router, hosts, blockSize int) (*SweepResult, *SymStats, error) {
	return Sweep(ctx, r, hosts, SweepSpec{SymBlock: blockSize})
}
