package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/design"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/server"
	"repro/internal/store"
)

// Design catalogs for the cli-engines design jobs. "smoke" is the design
// smoke catalog; "wide" is an ftree-only grid whose multipath routers send
// most groups to tier-2 probes.
var catalogs = map[string]string{
	"smoke": `{"families": ["ftree", "mnt"], "routers": ["deterministic", "dest-mod", "mnt-dest-mod"],
		"n": {"min": 4, "max": 4}, "r": {"min": 3, "max": 5}, "m": {"min": 1, "max": 12},
		"ports": {"min": 4, "max": 6}, "levels": {"min": 2, "max": 3},
		"verify": {"max_hosts": 18, "max_exhaustive": 7, "trials": 100}}`,
	"wide": `{"families": ["ftree"], "routers": ["deterministic", "adaptive", "dest-mod", "spray"],
		"n": {"min": 2, "max": 3}, "r": {"min": 2, "max": 3}, "m": {"min": 1, "max": 10},
		"verify": {"max_hosts": 9, "max_exhaustive": 7, "trials": 60}}`,
}

// jobRequest maps a job's fabric onto a request, for buildFabric.
func jobRequest(j *job) *api.Request {
	q := baseRequest(j.N, j.M, j.R, j.Routing, j.Seed)
	q.SprayWidth = j.Width
	return &q
}

// runJob executes one cli-engines job through the library calls nbverify
// (and nbdesign, for design jobs) makes and checks its answer.
func runJob(ctx context.Context, tr *tracer, j *job) error {
	if j.Engine == "design" {
		return runDesign(ctx, tr, j)
	}
	q := jobRequest(j)
	f, r, err := buildFabric(tr, q)
	if err != nil {
		return err
	}
	hosts := f.Ports()
	switch j.Engine {
	case "lemma1":
		pr, ok := r.(routing.PairRouter)
		if !ok {
			return fmt.Errorf("%s is not single-path", r.Name())
		}
		id := tr.begin("analysis.lemma1")
		res, err := analysis.CheckLemma1AllPairs(pr, hosts)
		tr.end(id)
		if err != nil {
			return err
		}
		if !res.Nonblocking {
			return fmt.Errorf("%s: Theorem-3 routing reported blocking", f.Net.Name)
		}
		return nil
	case "delta", "oracle":
		id := tr.begin("analysis.sweep")
		res, err := analysis.SweepExhaustiveCtx(ctx, r, hosts)
		tr.end(id)
		if err != nil {
			return err
		}
		sweepCounts(tr, res)
		return checkSweep(j, f.Net.Name, res)
	case "sym":
		id := tr.begin("analysis.sweep")
		res, stats, err := analysis.SweepExhaustiveSymCtx(ctx, r, hosts, j.N)
		tr.end(id)
		if err != nil {
			return err
		}
		sweepCounts(tr, res)
		tr.count("permutation.sym_sweeps", 1)
		if stats.Applied {
			tr.count("permutation.sym_applied", 1)
			tr.count("permutation.orbits", float64(stats.Orbits))
		}
		if !stats.Applied {
			return fmt.Errorf("%s: symmetry reduction fell back: %s", f.Net.Name, stats.Reason)
		}
		return checkSweep(j, f.Net.Name, res)
	case "worstcase":
		s := &analysis.WorstCaseSearch{Router: r, Hosts: hosts, Restarts: 6, Steps: 200, Seed: j.Seed}
		id := tr.begin("analysis.worstcase")
		res, err := s.RunCtx(ctx)
		tr.end(id)
		if err != nil {
			return err
		}
		return checkWorstCase(r, res)
	}
	return fmt.Errorf("unknown engine %q", j.Engine)
}

// runDesign plans a catalog the way nbdesign's local mode does: probes
// through server.RunVerifyRequest, memoized in a fresh in-memory store.
func runDesign(ctx context.Context, tr *tracer, j *job) error {
	var cat api.DesignCatalog
	if err := json.Unmarshal([]byte(catalogs[j.Catalog]), &cat); err != nil {
		return fmt.Errorf("catalog %s: %w", j.Catalog, err)
	}
	memo := store.NewMemory(4096)
	defer memo.Close()
	opts := design.Options{
		Verify: func(ctx context.Context, q *api.Request) (*api.VerifyReport, error) {
			rep, err := server.RunVerifyRequest(ctx, q)
			if err != nil && server.IsBadRequest(err) {
				return nil, fmt.Errorf("%w: %v", design.ErrInfeasible, err)
			}
			return rep, err
		},
		Memo: memo,
	}
	id := tr.begin("design.plan")
	rep, err := design.Plan(ctx, &cat, opts)
	tr.end(id)
	if err != nil {
		return err
	}
	tr.count("design.candidates", float64(rep.Candidates))
	tr.count("design.tier0", float64(rep.Tier0))
	tr.count("design.fresh_probes", float64(rep.FreshRuns))
	return checkDesign(j.Catalog, rep)
}

// probeJob runs, outside the timed operation, the route-table build and
// orbit enumeration that the job's sweep engine performs internally, so
// the traced run can report those layers separately. It records its spans
// under a root named "probe".
func probeJob(tr *tracer, j *job) error {
	if j.Engine != "delta" && j.Engine != "sym" {
		return nil
	}
	root := tr.begin("probe")
	defer tr.end(root)
	f, r, err := buildFabric(nil, jobRequest(j))
	if err != nil {
		return err
	}
	id := tr.begin("routing.table_build")
	t, err := routing.BuildRouteTable(r, f.Ports())
	tr.end(id)
	if err != nil {
		return err
	}
	tr.count("routing.tables", 1)
	tr.count("routing.table_entries", float64(t.Entries()))
	if j.Engine != "sym" {
		return nil
	}
	id = tr.begin("permutation.orbit_enum")
	defer tr.end(id)
	sym, err := permutation.NewBlockSymmetry(f.Ports(), j.N)
	if err != nil {
		return err
	}
	sym.Orbits(func(*permutation.Permutation, int) bool { return true })
	tr.count("permutation.orbit_enums", 1)
	return nil
}

// runEngines drives the cli-engines workload: one caller running the job
// stream through the library calls the offline commands make.
func runEngines(cfg config, res *result) error {
	ctx := context.Background()
	var gen *generator
	setup := func() error {
		g, err := newGenerator(cfg.workload, cfg.seed)
		if err != nil {
			return err
		}
		// Let lazy set-up (symmetry caches, first-use code paths) finish
		// before timing: one pass over the cheap jobs.
		for _, j := range warmJobs {
			if err := runJob(ctx, nil, &j); err != nil {
				return err
			}
		}
		gen = g
		return nil
	}
	setupS, err := timeSetup(setupReps, setup, func() {})
	if err != nil {
		return err
	}
	res.set("setup_s", setupS, setupReps)
	res.note("load: closed loop, 1 caller, in-process library calls (no HTTP, no store), engine workers <= 2")

	if cfg.trace {
		ops := make([]op, 0, 1024)
		limit := cfg.ops
		if limit == 0 {
			limit = 1 << 20
		}
		for len(ops) < limit && len(ops) < 1<<14 {
			ops = append(ops, gen.take())
		}
		tr := newTracer()
		deadline := time.Now().Add(seconds(cfg.seconds))
		run := func(t *tracer, o op) error { return runJob(ctx, t, o.Job) }
		probe := func(t *tracer, o op) error { return probeJob(t, o.Job) }
		n, du, dt, err := pairedReplay(tr, ops, deadline, cfg.ops, run, probe)
		res.attempted += 2 * n
		if err != nil {
			res.failed++
			res.wrongAnswer(err)
		}
		setLayerMetrics(res, tr, n, du, dt)
		return writeTrace(cfg, res, tr)
	}

	samples, marks := measureRounds(seconds(cfg.seconds), cfg.ops, engineRoundLen, gen, func(o op) sample {
		t := time.Now()
		err := runJob(ctx, nil, o.Job)
		return sample{op: o, ms: msSince(t), ok: err == nil, err: err, wrong: err != nil}
	})
	tally(res, samples)
	summarize(res, byRound(samples, engineRoundLen), marks, "rounds")
	samples = nil
	res.set("live_heap_mb", liveHeapMB(), 0)
	return nil
}

// warmJobs is the set-up pass of cli-engines.
var warmJobs = []job{
	{Engine: "lemma1", N: 4, M: 16, R: 8, Routing: "paper"},
	{Engine: "lemma1", N: 5, M: 25, R: 30, Routing: "paper"},
	{Engine: "delta", N: 3, M: 9, R: 3, Routing: "paper"},
	{Engine: "worstcase", N: 2, M: 3, R: 8, Routing: "dest-mod", Seed: 1},
	{Engine: "delta", N: 2, M: 4, R: 4, Routing: "spray"},
	{Engine: "sym", N: 5, M: 6, R: 2, Routing: "spray"},
	{Engine: "design", Catalog: "smoke"},
}
