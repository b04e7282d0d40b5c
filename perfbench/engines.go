package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The functions in this file are the engine call chains behind each
// request kind, written against the program's public functions the way
// the nbserve handlers and the nbverify/nbdesign commands call them. They
// produce the reference bodies every answer is checked against, and in the
// traced run they carry the layer spans.

// buildFabric constructs ftree(n+m, r) and the named router.
func buildFabric(tr *tracer, q *api.Request) (*topology.FoldedClos, routing.Router, error) {
	id := tr.begin("topology.build")
	f := topology.NewFoldedClos(q.N, q.M, q.R)
	tr.end(id)
	tr.count("topology.builds", 1)
	id = tr.begin("routing.router_build")
	r, err := newRouter(f, q.Routing, q.SprayWidth, q.SeedValue())
	tr.end(id)
	if err != nil {
		tr.count("routing.route_errors", 1)
	}
	return f, r, err
}

// newRouter covers the routings the workloads use, with the same
// constructor choices as the server's buildTarget.
func newRouter(f *topology.FoldedClos, name string, width int, seed int64) (routing.Router, error) {
	switch name {
	case "paper":
		return routing.NewPaperDeterministic(f)
	case "dest-mod":
		return routing.NewDestMod(f), nil
	case "random-fixed":
		return routing.NewRandomFixed(f, seed), nil
	case "adaptive":
		return routing.NewNonblockingAdaptive(f)
	case "spray":
		if width <= 0 || width >= f.M {
			return routing.NewFullSpray(f), nil
		}
		return routing.NewKSpray(f, width)
	}
	return nil, fmt.Errorf("routing %q is not used by any workload", name)
}

// encode marshals a report as the server does.
func encode(tr *tracer, v any) ([]byte, error) {
	id := tr.begin("api.encode")
	b, err := json.Marshal(v)
	tr.end(id)
	return b, err
}

// sweepCounts records one sweep's pattern count at the analysis boundary.
func sweepCounts(tr *tracer, res *analysis.SweepResult) {
	tr.count("analysis.patterns", float64(res.Tested))
	if res.RouteErr != nil {
		tr.count("routing.route_errors", 1)
	}
}

// verifyBody is the POST /v1/verify body for the modes the workloads send:
// auto on a single-path router (exact Lemma 1), random and
// exhaustive-parallel.
func verifyBody(ctx context.Context, tr *tracer, q *api.Request) ([]byte, error) {
	f, r, err := buildFabric(tr, q)
	if err != nil {
		return nil, err
	}
	hosts := f.Ports()
	rep := &api.VerifyReport{Network: f.Net.Name, Hosts: hosts, Routing: r.Name()}
	var res *analysis.SweepResult
	switch q.Mode {
	case "auto":
		pr, ok := r.(routing.PairRouter)
		if !ok {
			return nil, fmt.Errorf("mode auto replay needs a single-path router, got %s", r.Name())
		}
		id := tr.begin("analysis.lemma1")
		l1, err := analysis.CheckLemma1AllPairs(pr, hosts)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		rep.Method, rep.Exact = "lemma1-exact", true
		if l1.Nonblocking {
			rep.Verdict = "nonblocking"
			return encode(tr, rep)
		}
		rep.Verdict = "blocking"
		w, err := analysis.BlockingWitness(l1, hosts)
		if err != nil {
			return nil, err
		}
		rep.Witness = w.String()
		return encode(tr, rep)
	case "random":
		rep.Method = "random"
		id := tr.begin("analysis.sweep")
		res, err = analysis.SweepRandomCtx(ctx, r, hosts, q.Trials, q.SeedValue())
		tr.end(id)
	case "exhaustive-parallel":
		rep.Method, rep.Exact = "exhaustive-parallel", true
		id := tr.begin("analysis.sweep")
		res, err = analysis.SweepExhaustiveParallelCtx(ctx, r, hosts, q.Workers)
		tr.end(id)
	default:
		return nil, fmt.Errorf("verify mode %q is not used by any workload", q.Mode)
	}
	if err != nil {
		return nil, err
	}
	sweepCounts(tr, res)
	if res.RouteErr != nil {
		return nil, res.RouteErr
	}
	rep.Tested, rep.Blocked, rep.MaxLinkLoad = res.Tested, res.Blocked, res.MaxLinkLoad
	if res.Blocked > 0 {
		rep.Verdict = "blocking"
		rep.Witness = res.FirstBlocked.String()
	} else {
		rep.Verdict = "no-blocking-found"
	}
	return encode(tr, rep)
}

// shardedSweep replays a coordinated sweep the way the coordinator splits
// it: a prefix partition into len(workers)·2 slots, one worker shard call
// per prefix, merged in prefix order.
func shardedSweep(ctx context.Context, tr *tracer, q *api.Request) (*analysis.SweepResult, error) {
	f, r, err := buildFabric(tr, q)
	if err != nil {
		return nil, err
	}
	hosts := f.Ports()
	id := tr.begin("permutation.shard_plan")
	shards := permutation.PrefixShards(hosts, coordWorkers*2)
	tr.end(id)
	parts := make([]analysis.SweepResult, 0, len(shards))
	for _, sh := range shards {
		id := tr.begin("analysis.sweep")
		res, err := analysis.SweepShardCtx(ctx, r, hosts, sh, nil)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		sweepCounts(tr, res)
		parts = append(parts, *res)
	}
	id = tr.begin("analysis.merge")
	res := analysis.MergeShardSweeps(parts)
	tr.end(id)
	return res, nil
}

// worstCaseBody is the POST /v1/worstcase body.
func worstCaseBody(ctx context.Context, tr *tracer, q *api.Request) ([]byte, error) {
	f, r, err := buildFabric(tr, q)
	if err != nil {
		return nil, err
	}
	s := &analysis.WorstCaseSearch{Router: r, Hosts: f.Ports(), Restarts: q.Restarts, Steps: q.Steps, Seed: q.SeedValue()}
	id := tr.begin("analysis.worstcase")
	res, err := s.RunCtx(ctx)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rep := &api.WorstCaseReport{
		Network: f.Net.Name, Hosts: f.Ports(), Routing: r.Name(),
		ContendedLinks: res.ContendedLinks, MaxLinkLoad: res.MaxLoad, Evaluated: res.Evaluated,
	}
	if res.Permutation != nil {
		rep.Permutation = res.Permutation.String()
	}
	return encode(tr, rep)
}

// simBody is the POST /v1/sim body for pattern random: closed-loop trials
// against the crossbar reference.
func simBody(tr *tracer, q *api.Request) ([]byte, error) {
	f, r, err := buildFabric(tr, q)
	if err != nil {
		return nil, err
	}
	hosts := f.Ports()
	cfg := sim.Config{PacketFlits: q.Flits, PacketsPerPair: q.Pkts, Seed: q.SeedValue(), Arbiter: sim.RoundRobin}
	id := tr.begin("sim.run")
	sum, err := sim.CompareToCrossbarParallel(f.Net, r, hosts, q.Trials, q.Workers, q.SeedValue(), cfg)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.count("sim.packets", float64(q.Trials*hosts*q.Pkts))
	rep := &api.SimReport{
		Network: f.Net.Name, Hosts: hosts, Routing: r.Name(),
		PacketFlits: q.Flits, Arbiter: cfg.Arbiter.String(),
		Mode: "random-trials", Pattern: "random", PacketsPerPair: q.Pkts, Trials: sum,
	}
	return encode(tr, rep)
}

// failuresBody is the POST /v1/failures body: campaign.Run on the request.
func failuresBody(ctx context.Context, tr *tracer, q *api.Request) ([]byte, error) {
	fr := q.Failures
	id := tr.begin("campaign.run")
	rep, err := campaign.Run(ctx, campaign.Config{
		N: q.N, M: q.M, R: q.R,
		Scenario: campaign.Scenario(fr.Scenario), MaxFailures: fr.MaxFailures,
		Samples: fr.Samples, Trials: fr.Trials, Schemes: fr.Schemes,
		Seed: q.SeedValue(), Workers: q.Workers, Sim: fr.Sim,
		SimFlits: q.Flits, SimPackets: q.Pkts,
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.count("campaign.cells", float64(len(fr.Schemes)*(1+fr.MaxFailures*fr.Samples)))
	for _, c := range rep.Curves {
		for _, p := range c.Points {
			tr.count("campaign.route_failures", float64(p.RouteFailures))
		}
	}
	return encode(tr, rep)
}

// requestBody dispatches a single serve request to its engine chain.
func requestBody(ctx context.Context, tr *tracer, kind string, q *api.Request) ([]byte, error) {
	switch kind {
	case kindVerify:
		return verifyBody(ctx, tr, q)
	case kindFailures:
		return failuresBody(ctx, tr, q)
	case kindSim:
		return simBody(tr, q)
	case kindWorstCase:
		return worstCaseBody(ctx, tr, q)
	}
	return nil, fmt.Errorf("no engine chain for %q", kind)
}
