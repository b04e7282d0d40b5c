package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

const (
	serveSlices = 5 // a 10 s window gives slices of ~500 serve-miss operations
	// storeEntries is nbserve's default entry bound (-cache 256). The
	// warm set takes half of it and is touched far more often than 128
	// misses arrive, so it stays resident; the misses are evicted, so
	// retained state does not grow with the number of operations a run
	// completes, and the file store compacts its log as in service.
	storeEntries = 256
)

// serveEnv is one set-up of a serve workload: the live server, its client
// and the operation stream.
type serveEnv struct {
	hot  bool
	ls   *liveServer
	cl   *client
	gen  *generator
	dir  string            // file-store directory (serve-miss)
	warm map[string][]byte // serve-hot: request bytes → checked answer
}

// newStore makes the store kind the workload serves from: in-memory for
// serve-hot, the file log for serve-miss.
func newStore(hot bool, dir string) (store.Store, error) {
	if hot {
		return store.NewMemory(storeEntries), nil
	}
	return store.NewFile(filepath.Join(dir, fmt.Sprintf("store-%d.log", time.Now().UnixNano())), storeEntries)
}

func setupServe(ctx context.Context, cfg config, hot bool) (*serveEnv, error) {
	e := &serveEnv{hot: hot}
	g, err := newGenerator(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	e.gen = g
	if !hot {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return nil, err
		}
		if e.dir, err = os.MkdirTemp(buildDir, "serve-miss-"); err != nil {
			return nil, err
		}
	}
	st, err := newStore(hot, e.dir)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.ls, err = startServer(server.Config{Workers: 2, Store: st}); err != nil {
		st.Close()
		e.close()
		return nil, err
	}
	e.cl = newClient()
	if !hot {
		// Warm code paths and connections with one round of requests from
		// a separate stream, each answer checked.
		wg, err := warmupGenerator(cfg.workload, cfg.seed)
		if err != nil {
			e.close()
			return nil, err
		}
		for i := 0; i < 20; i++ {
			s := e.send(wg.take())
			if s.ok {
				s.err = e.check(ctx, &s)
			}
			if s.err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up: %w", s.err)
			}
		}
		return e, nil
	}
	// Warm the key set through the live server and check every answer.
	e.warm = map[string][]byte{}
	for _, q := range g.keys {
		body := mustJSON(q)
		status, _, got, err := e.cl.do(http.MethodPost, e.ls.url+"/v1/verify", body)
		if err != nil || status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("warm %s: status %d: %v", q.CacheKey(kindVerify), status, err)
		}
		want, err := verifyBody(ctx, nil, &q)
		if err != nil {
			e.close()
			return nil, err
		}
		if !bytes.Equal(got, want) {
			e.close()
			return nil, fmt.Errorf("warm %s: answer %s, want %s", q.CacheKey(kindVerify), got, want)
		}
		if err := checkTheorem3(&q, got); err != nil {
			e.close()
			return nil, err
		}
		e.warm[string(body)] = got
	}
	return e, nil
}

func (e *serveEnv) close() {
	if e.cl != nil {
		e.cl.close()
	}
	if e.ls != nil {
		e.ls.close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// checkTheorem3 asserts the pinned paper verdict: Theorem-3 routing on
// ftree(n+m, r) with m >= n^2 is nonblocking, proven exactly by Lemma 1.
func checkTheorem3(q *api.Request, body []byte) error {
	var rep api.VerifyReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return err
	}
	if q.Routing == "paper" && q.M >= q.N*q.N &&
		(rep.Verdict != "nonblocking" || !rep.Exact || rep.Method != "lemma1-exact" || rep.Hosts != q.N*q.R) {
		return fmt.Errorf("ftree(%d+%d,%d) paper: verdict %s by %s, want exact nonblocking", q.N, q.M, q.R, rep.Verdict, rep.Method)
	}
	return nil
}

// send posts one operation and checks serve-hot hits on the spot (their
// answers are known from the warm set); every other answer is kept for
// the check after the window.
func (e *serveEnv) send(o op) sample {
	t := time.Now()
	status, cache, body, err := e.cl.do(http.MethodPost, e.ls.url+"/v1/"+o.Kind, o.Body)
	s := sample{op: o, ms: msSince(t), cache: cache, body: body}
	switch {
	case err != nil:
		s.err = err
	case status != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", status, body)
	default:
		s.ok = true
	}
	if s.ok && e.hot && o.Kind == kindVerify && o.Hit {
		if want := e.warm[string(o.Body)]; !bytes.Equal(body, want) {
			s.ok, s.wrong, s.err = false, true, fmt.Errorf("op %d: hit answer %s, want %s", o.ID, body, want)
		}
		s.body = nil
	}
	return s
}

// expected returns the reference answer to a single serve request.
func (e *serveEnv) expected(ctx context.Context, kind string, body []byte) ([]byte, error) {
	if want, ok := e.warm[string(body)]; ok {
		return want, nil
	}
	var q api.Request
	if err := decodeStrict(body, &q); err != nil {
		return nil, err
	}
	want, err := requestBody(ctx, nil, kind, &q)
	if err != nil {
		return nil, err
	}
	if kind == kindVerify {
		if err := checkTheorem3(&q, want); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// check compares one kept answer with its reference: the in-process engine
// chain for single requests (for /v1/failures, campaign.Run on the same
// configuration), item by item for batches.
func (e *serveEnv) check(ctx context.Context, s *sample) error {
	if s.body == nil {
		return nil // checked on arrival
	}
	if s.op.Kind != kindBatch {
		want, err := e.expected(ctx, s.op.Kind, s.op.Body)
		if err != nil {
			return fmt.Errorf("op %d reference: %w", s.op.ID, err)
		}
		if !bytes.Equal(s.body, want) {
			return fmt.Errorf("op %d (%s): answer %s, want %s", s.op.ID, s.op.Kind, s.body, want)
		}
		return nil
	}
	var req api.BatchRequest
	var rep api.BatchReport
	if err := decodeStrict(s.op.Body, &req); err != nil {
		return err
	}
	if err := json.Unmarshal(s.body, &rep); err != nil {
		return fmt.Errorf("op %d: batch answer: %w", s.op.ID, err)
	}
	if len(rep.Items) != len(req.Items) {
		return fmt.Errorf("op %d: %d batch items answered, want %d", s.op.ID, len(rep.Items), len(req.Items))
	}
	for i := range req.Items {
		want, err := e.expected(ctx, kindVerify, mustJSON(req.Items[i]))
		if err != nil {
			return err
		}
		if it := rep.Items[i]; it.Status != http.StatusOK || !bytes.Equal(it.Result, want) {
			return fmt.Errorf("op %d item %d: status %d answer %s, want %s", s.op.ID, i, it.Status, it.Result, want)
		}
	}
	return nil
}

func runServe(cfg config, res *result, hot bool) error {
	ctx := context.Background()
	var env *serveEnv
	setupS, err := timeSetup(setupReps, func() error {
		var err error
		env, err = setupServe(ctx, cfg, hot)
		return err
	}, func() { env.close() })
	if err != nil {
		return err
	}
	defer env.close()
	res.set("setup_s", setupS, setupReps)
	storeKind := "in-memory"
	if !hot {
		storeKind = "file"
	}
	res.note("load: closed loop, 1 client over 1 connection to nbserve on 127.0.0.1 (loopback, no real link); Workers=2, %s store", storeKind)

	span := cfg.seconds
	if cfg.trace {
		span = cfg.seconds / 2
	}
	ops := cfg.ops
	m0, err := env.cl.metrics(env.ls.url)
	if err != nil {
		return err
	}
	// One closed-loop client. Two clients keep both cores of a 2-core
	// machine busy, so each operation also waits on the other client's
	// work, on the garbage collector and on whatever else shares the host;
	// in interleaved runs of the same seeds that tripled the run-to-run
	// spread (serve-miss 0.13-0.17 of the median against 0.035-0.047 with
	// one client; serve-hot 0.21-0.26 against 0.12-0.15).
	samples, marks := measure(seconds(span), ops, serveSlices, env.gen, env.send)
	m1, err := env.cl.metrics(env.ls.url)
	if err != nil {
		return err
	}
	checkAll(samples, func(s *sample) error { return env.check(ctx, s) })
	tally(res, samples)

	if cfg.trace {
		return tracedServe(ctx, cfg, res, env, samples, m0, m1)
	}
	summarize(res, byTime(samples, marks), marks, "time slices")
	if hot {
		single := func(cache string) func(*sample) bool {
			return func(s *sample) bool { return s.op.Kind == kindVerify && s.cache == cache }
		}
		for _, c := range []string{"hit", "miss"} {
			xs := latencies(samples, single(c))
			res.set(c+"_p50_ms", percentile(xs, 0.50), len(xs))
			res.set(c+"_p99_ms", percentile(xs, 0.99), len(xs))
		}
	}
	samples = nil
	res.set("live_heap_mb", liveHeapMB(), 0)
	return nil
}

// histDelta is the job-latency histogram of the window between two
// /metrics snapshots.
func histDelta(a, b *sim.Histogram) *sim.Histogram {
	d := *b
	d.Count -= a.Count
	d.Sum -= a.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= a.Buckets[i]
	}
	return &d
}

// tracedServe reports the per-layer metrics of a serve workload: the live
// window's /metrics counters and round-trip times, plus an in-process
// replay of the same operations through the public functions the handler
// uses (decode, CacheKey, store Get/Put on the same store kind, the engine
// chain, json.Marshal) with spans on.
func tracedServe(ctx context.Context, cfg config, res *result, env *serveEnv, samples []sample,
	m0, m1 *server.MetricsSnapshot) error {
	ops := 0
	var hitRTT, missRTT []float64
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			continue
		}
		ops++
		switch {
		case s.op.Kind == kindVerify && s.cache == "hit":
			hitRTT = append(hitRTT, s.ms)
		case s.cache == "miss":
			missRTT = append(missRTT, s.ms)
		}
	}
	hits, misses := m1.StoreHits-m0.StoreHits, m1.StoreMisses-m0.StoreMisses
	if hits+misses > 0 {
		res.set("store.hit_frac", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if ops > 0 {
		res.set("store.puts", float64(m1.StorePuts-m0.StorePuts)/float64(ops), ops)
	}
	res.set("server.rejected", float64(m1.JobsRejected-m0.JobsRejected), 0)
	jobs := histDelta(m0.JobLatency, m1.JobLatency)
	jobP50 := float64(jobs.Quantile(0.50)) / 1e3
	res.set("server.job_run_p50_ms", jobP50, int(jobs.Count))
	res.set("server.job_run_p99_ms", float64(jobs.Quantile(0.99))/1e3, int(jobs.Count))
	if len(missRTT) > 0 {
		res.set("server.queue_wait_ms", percentile(missRTT, 0.50)-jobP50, len(missRTT))
	}

	// Replay into fresh stores of the same kind, warmed like the server.
	replayOps := make([]op, 0, len(samples))
	answers := make(map[int64][]byte, len(samples))
	for i := range samples {
		s := &samples[i]
		if s.ok {
			replayOps = append(replayOps, s.op)
			if s.body != nil {
				answers[s.op.ID] = s.body
			}
		}
	}
	stores := [2]store.Store{}
	for i := range stores {
		st, err := newStore(env.hot, env.dir)
		if err != nil {
			return err
		}
		defer st.Close()
		for body, ans := range env.warm {
			var q api.Request
			if err := decodeStrict([]byte(body), &q); err != nil {
				return err
			}
			st.Put(q.CacheKey(kindVerify), ans)
		}
		stores[i] = st
	}
	tr := newTracer()
	deadline := time.Now().Add(seconds(cfg.seconds / 2))
	run := func(t *tracer, o op) error {
		st := stores[0]
		if t != nil {
			st = stores[1]
		}
		got, err := replayServe(ctx, t, st, o)
		if err != nil {
			return fmt.Errorf("replay op %d: %w", o.ID, err)
		}
		if want, ok := answers[o.ID]; ok && !bytes.Equal(got, want) {
			return fmt.Errorf("replay op %d (%s): %s, live answer %s", o.ID, o.Kind, got, want)
		}
		if ans, ok := env.warm[string(o.Body)]; ok && o.Kind == kindVerify && !bytes.Equal(got, ans) {
			return fmt.Errorf("replay op %d: %s, live answer %s", o.ID, got, ans)
		}
		if t != nil {
			t.count("api.response_bytes", float64(len(got)+1))
		}
		return nil
	}
	n, du, dt, err := pairedReplay(tr, replayOps, deadline, cfg.ops, run, nil)
	res.attempted += 2 * n
	if err != nil {
		res.failed++
		res.wrongAnswer(err)
	}
	setLayerMetrics(res, tr, n, du, dt)
	if !env.hot {
		res.shares = tr.kindShares()
		var parts []string
		for _, k := range []string{kindFailures, kindSim, kindVerify, kindWorstCase} {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*res.shares[k]))
		}
		res.note("engine time by request kind: %s", strings.Join(parts, ", "))
	}
	if n > 0 {
		res.set("api.response_bytes", tr.counts["api.response_bytes"]/float64(n), n)
	}
	if len(hitRTT) > 0 {
		lookup := res.values["api.decode_us"] + res.values["api.key_us"] + res.values["store.get_us"]
		res.set("server.handler_overhead_us", percentile(hitRTT, 0.50)*1e3-lookup, len(hitRTT))
	}
	return writeTrace(cfg, res, tr)
}

// replayServe answers one serve operation in-process the way the handler
// does, against st.
func replayServe(ctx context.Context, tr *tracer, st store.Store, o op) ([]byte, error) {
	if o.Kind == kindBatch {
		return replayBatch(ctx, tr, st, o)
	}
	id := tr.begin("api.decode")
	var q api.Request
	err := decodeStrict(o.Body, &q)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("api.key")
	key := q.CacheKey(o.Kind)
	tr.end(id)
	id = tr.begin("store.get")
	body, ok := st.Get(key)
	tr.end(id)
	if ok {
		return body, nil
	}
	body, err = requestBody(ctx, tr, o.Kind, &q)
	if err != nil {
		return nil, err
	}
	id = tr.begin("store.put")
	st.Put(key, body)
	tr.end(id)
	return body, nil
}

// replayBatch mirrors the batch handler: group items by canonical key,
// answer groups from the store or the engine, fan results back in order
// and encode the report.
func replayBatch(ctx context.Context, tr *tracer, st store.Store, o op) ([]byte, error) {
	id := tr.begin("api.decode")
	var req api.BatchRequest
	err := decodeStrict(o.Body, &req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	type group struct {
		key     string
		q       *api.Request
		indices []int
		cache   string
		body    []byte
	}
	groups := map[string]*group{}
	var order []*group
	for i := range req.Items {
		it := &req.Items[i]
		id := tr.begin("api.key")
		key := it.CacheKey(kindVerify)
		tr.end(id)
		g := groups[key]
		if g == nil {
			g = &group{key: key, q: it}
			groups[key] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
	}
	rep := api.BatchReport{Items: make([]api.BatchItemReport, len(req.Items)), Unique: len(order)}
	for _, g := range order {
		id := tr.begin("store.get")
		body, ok := st.Get(g.key)
		tr.end(id)
		if ok {
			g.cache, g.body = "hit", body
			continue
		}
		if g.body, err = verifyBody(ctx, tr, g.q); err != nil {
			return nil, err
		}
		g.cache = "miss"
		rep.JobsRun++
		id = tr.begin("store.put")
		st.Put(g.key, g.body)
		tr.end(id)
	}
	for _, g := range order {
		for n, idx := range g.indices {
			item := api.BatchItemReport{Status: http.StatusOK, Cache: g.cache, Result: g.body}
			if g.cache == "hit" {
				rep.CacheHits++
			} else if n > 0 {
				rep.Deduplicated++
				item.Cache = "dedup"
			}
			rep.Items[idx] = item
		}
	}
	return encode(tr, &rep)
}
