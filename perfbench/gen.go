package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/api"
)

// op is one generated operation. Serve and coordinator operations carry
// the exact request bytes a client sends; cli-engines operations carry a
// job description. Everything the program under test receives comes from
// these fields, and they come only from the workload seed.
type op struct {
	ID   int64           `json:"id"`
	Kind string          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
	// Hit is true when a serve-hot operation targets the warmed key set,
	// so the server is expected to answer it from the store.
	Hit bool `json:"hit,omitempty"`
	Job *job `json:"job,omitempty"`
}

// Operation kinds. The serve kinds name the endpoint they are posted to.
const (
	kindVerify    = "verify"
	kindBatch     = "verify/batch"
	kindFailures  = "failures"
	kindSim       = "sim"
	kindWorstCase = "worstcase"
	kindSweep     = "verify/sweep"
	kindJob       = "job"
)

// job is one cli-engines library call sequence, the same one nbverify or
// nbdesign makes for these parameters.
type job struct {
	Engine  string `json:"engine"` // lemma1 | delta | sym | oracle | worstcase | design
	N       int    `json:"n,omitempty"`
	M       int    `json:"m,omitempty"`
	R       int    `json:"r,omitempty"`
	Routing string `json:"routing,omitempty"`
	Width   int    `json:"width,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	Catalog string `json:"catalog,omitempty"`
}

// generator yields a workload's operation stream. The stream is a sequence
// of rounds; each round holds the same mix of operation classes in a
// seeded order with seeded parameters, so any window that spans several
// rounds sees the same mix whatever the seed.
type generator struct {
	rng   *rand.Rand
	round func(g *generator) []op
	queue []op
	next  int64
	seq   int64             // unique-key counter for miss operations
	base  int64             // first unique request seed
	keys  []api.Request     // serve-hot warm set
	keyJS []json.RawMessage // the warm set's request bodies
}

func newGenerator(workload string, seed int64) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewSource(seed)), base: 1_000_000}
	switch workload {
	case "serve-hot":
		g.round, g.keys = hotRound, warmKeys(seed)
		for _, q := range g.keys {
			g.keyJS = append(g.keyJS, mustJSON(q))
		}
	case "serve-miss":
		g.round = missRound
	case "cli-engines":
		g.round = engineRound
	case "coord-sweep":
		g.round = sweepRound
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return g, nil
}

// take returns the next operation of the stream.
func (g *generator) take() op {
	if len(g.queue) == 0 {
		g.queue = g.round(g)
		g.rng.Shuffle(len(g.queue), func(i, j int) { g.queue[i], g.queue[j] = g.queue[j], g.queue[i] })
	}
	o := g.queue[0]
	g.queue = g.queue[1:]
	o.ID = g.next
	g.next++
	return o
}

// uniqueSeed returns a request seed no earlier operation of this stream
// used. The seed is part of every store key, so it keeps miss requests
// distinct even when their fabric parameters repeat.
func (g *generator) uniqueSeed() int64 {
	g.seq++
	return g.base + g.seq
}

// warmupGenerator is a second stream for set-up warm-up operations. Its
// unique seeds live far from the measured stream's, so no warm-up answer
// is ever a store hit for a measured operation.
func warmupGenerator(workload string, seed int64) (*generator, error) {
	g, err := newGenerator(workload, seed^0x3a7e)
	if err != nil {
		return nil, err
	}
	g.base = 1 << 40
	return g, nil
}

// baseRequest is a request with every field the server's normalization
// fills spelled out, so the server, the in-process replay and the
// reference all see the same parameters and the same store key.
func baseRequest(n, m, r int, routing string, seed int64) api.Request {
	return api.Request{
		Topo: "ftree", N: n, M: m, R: r, Ports: 20, Levels: 2,
		Routing: routing, Mode: "auto", Trials: 500, Seed: api.SeedPtr(seed),
		MaxExhaustive: 9, Restarts: 8, Steps: 400, Pattern: "random",
		Flits: 4, Pkts: 8, Arbiter: "round-robin", Workers: 1,
	}
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the generator only marshals plain structs
	}
	return b
}

// hotKeys is the serve-hot warm set: small Theorem-3 fabrics (paper
// routing, m >= n^2) verified exactly by Lemma 1.
const hotKeys = 128

func warmKeys(seed int64) []api.Request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	seen := map[string]bool{}
	var keys []api.Request
	for len(keys) < hotKeys {
		n := 2 + rng.Intn(3)
		q := baseRequest(n, n*n+rng.Intn(8), 2+rng.Intn(7), "paper", 1)
		k := q.CacheKey(kindVerify)
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, q)
	}
	return keys
}

// hotMiss is a fresh Lemma-1 verify the warm set does not hold.
func (g *generator) hotMiss() api.Request {
	n := 2 + g.rng.Intn(3)
	return baseRequest(n, n*n+g.rng.Intn(64), 2+g.rng.Intn(7), "paper", g.uniqueSeed())
}

// hotRound: 40 single verifies (38 hits, 2 misses) and 4 batches of 8
// items (one miss item in one batch), so about 95% of lookups hit.
func hotRound(g *generator) []op {
	keys := g.keys
	var ops []op
	for i := 0; i < 40; i++ {
		if i < 2 {
			ops = append(ops, op{Kind: kindVerify, Body: mustJSON(g.hotMiss())})
			continue
		}
		ops = append(ops, op{Kind: kindVerify, Hit: true, Body: g.keyJS[g.rng.Intn(len(keys))]})
	}
	for b := 0; b < 4; b++ {
		items := make([]api.Request, 8)
		for i := range items {
			items[i] = keys[g.rng.Intn(len(keys))]
		}
		hit := true
		if b == 0 {
			items[g.rng.Intn(len(items))] = g.hotMiss()
			hit = false
		}
		ops = append(ops, op{Kind: kindBatch, Hit: hit, Body: mustJSON(api.BatchRequest{Items: items})})
	}
	return ops
}

// missRound: every request is new to the server. Campaign cells and
// closed-loop sim trials take most of the worker time; adaptive random
// sweeps and worst-case searches fill the rest.
func missRound(g *generator) []op {
	var ops []op
	scenarios := []string{"tops", "links", "tops-correlated", "pods"}
	schemes := [][]string{
		{"local-reroute"}, {"adaptive-avoiding", "spared-deterministic"},
		{"naive-remap", "local-reroute"}, {"spared-deterministic"},
	}
	for i := 0; i < 8; i++ {
		q := baseRequest(4, 18+g.rng.Intn(5), 7+g.rng.Intn(3), "paper", g.uniqueSeed())
		q.Failures = &api.FailuresRequest{
			Scenario: scenarios[i%4], MaxFailures: 2, Samples: 2, Trials: 24,
			Schemes: schemes[(i/2+g.rng.Intn(2))%4],
		}
		ops = append(ops, op{Kind: kindFailures, Body: mustJSON(q)})
	}
	for i := 0; i < 6; i++ {
		q := baseRequest(2, 4, 6+g.rng.Intn(3), "paper", g.uniqueSeed())
		q.Trials = 8
		ops = append(ops, op{Kind: kindSim, Body: mustJSON(q)})
	}
	for i := 0; i < 4; i++ {
		q := baseRequest(4, 16+g.rng.Intn(5), 8, "adaptive", g.uniqueSeed())
		q.Mode, q.Trials = "random", 80
		ops = append(ops, op{Kind: kindVerify, Body: mustJSON(q)})
	}
	for i := 0; i < 2; i++ {
		q := baseRequest(2, 3, 6+g.rng.Intn(3), "dest-mod", g.uniqueSeed())
		q.Restarts, q.Steps = 8, 100
		ops = append(ops, op{Kind: kindWorstCase, Body: mustJSON(q)})
	}
	return ops
}

// engineRoundLen is the number of jobs in one cli-engines round.
const engineRoundLen = 20

// engineRound is one pass over the offline engines: 20 jobs in cost
// bands. cli-engines reports the median over rounds of each round's
// metrics, and a nearest-rank percentile of 20 jobs is the 10th (p50),
// 18th (p90) or 20th (p99) cheapest, so each of those ranks sits inside a
// band of jobs of similar cost: 8 jobs of a few milliseconds, then four
// mid-size Lemma-1 checks and the n=9 paper sweep around p50, the other
// n=9/n=12 sweeps, and at the top the adaptive oracle sweep twice and the
// Lemma-1 check of ftree(8+64, ~60), around p90 and p99.
// The parameter list is fixed (the sweep verdicts are pinned in check.go);
// the seed orders the round, jitters the Lemma-1 fabric sizes and seeds
// the randomized searches.
func engineRound(g *generator) []op {
	jobs := []job{
		{Engine: "worstcase", N: 3, M: 4, R: 6, Routing: "dest-mod", Seed: g.uniqueSeed()},
		{Engine: "worstcase", N: 2, M: 3, R: 8, Routing: "dest-mod", Seed: g.uniqueSeed()},
		{Engine: "sym", N: 5, M: 10, R: 2, Routing: "spray"},
		{Engine: "sym", N: 5, M: 6, R: 2, Routing: "spray"},
		{Engine: "sym", N: 3, M: 5, R: 3, Routing: "spray"},
		{Engine: "design", Catalog: "smoke"},
		{Engine: "design", Catalog: "wide"},
		{Engine: "delta", N: 2, M: 4, R: 4, Routing: "spray"},

		{Engine: "lemma1", N: 4, M: 16 + g.rng.Intn(4), R: 40 + g.rng.Intn(9), Routing: "paper"},
		{Engine: "lemma1", N: 4, M: 16 + g.rng.Intn(4), R: 40 + g.rng.Intn(9), Routing: "paper"},
		{Engine: "lemma1", N: 6, M: 36, R: 28 + g.rng.Intn(7), Routing: "paper"},
		{Engine: "lemma1", N: 5, M: 25, R: 36 + g.rng.Intn(7), Routing: "paper"},

		{Engine: "delta", N: 3, M: 9, R: 3, Routing: "paper"},
		{Engine: "delta", N: 3, M: 5, R: 3, Routing: "spray"},
		{Engine: "delta", N: 3, M: 5, R: 3, Routing: "spray", Width: 2},
		{Engine: "sym", N: 4, M: 8, R: 3, Routing: "spray"},

		{Engine: "sym", N: 2, M: 3, R: 5, Routing: "spray"},
		{Engine: "oracle", N: 2, M: 6, R: 4, Routing: "adaptive"},
		{Engine: "oracle", N: 2, M: 6, R: 4, Routing: "adaptive"},

		{Engine: "lemma1", N: 8, M: 64, R: 56 + g.rng.Intn(9), Routing: "paper"},
	}
	ops := make([]op, len(jobs))
	for i := range jobs {
		ops[i] = op{Kind: kindJob, Job: &jobs[i]}
	}
	return ops
}

// sweepRound: distinct exhaustive n=9 sweeps, ftree(3+m, 3) under
// random-fixed routing with a fresh routing seed each time.
func sweepRound(g *generator) []op {
	ops := make([]op, 0, 8)
	for i := 0; i < 8; i++ {
		q := baseRequest(3, 3+i, 3, "random-fixed", g.uniqueSeed())
		q.Mode, q.Workers = "exhaustive-parallel", 2
		ops = append(ops, op{Kind: kindSweep, Body: mustJSON(q)})
	}
	return ops
}
