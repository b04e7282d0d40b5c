package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/server"
)

const (
	// coordWorkers is the number of in-process worker nodes behind the
	// coordinator.
	coordWorkers = 2
	// coordSlices cuts a 10 s window into slices of ~110 sweeps, enough
	// for p90.
	coordSlices = 3
)

// coordEnv is one set-up of coord-sweep: two loopback workers, the
// coordinator that fans sweeps over them, and the client.
type coordEnv struct {
	workers []*liveServer
	coord   *liveServer
	cl      *client
	gen     *generator
	jobIDs  []string // every sweep job submitted, for the retention probe
}

func setupCoord(ctx context.Context, cfg config) (*coordEnv, error) {
	e := &coordEnv{}
	g, err := newGenerator(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	e.gen = g
	var urls []string
	for i := 0; i < coordWorkers; i++ {
		ls, err := startServer(server.Config{Workers: 1})
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, ls)
		urls = append(urls, ls.url)
	}
	e.coord, err = startServer(server.Config{Workers: 1, Coordinator: &server.CoordinatorConfig{Workers: urls}})
	if err != nil {
		e.close()
		return nil, err
	}
	e.cl = newClient()
	// Warm code paths and connections with two checked sweeps from a
	// separate stream.
	wg, err := warmupGenerator(cfg.workload, cfg.seed)
	if err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		s := e.sweep(wg.take())
		if s.ok {
			s.err = checkCoordSweep(ctx, &s)
		}
		if s.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return e, nil
}

func (e *coordEnv) close() {
	if e.cl != nil {
		e.cl.close()
	}
	// The coordinator first: closing it joins its sweep runners, which
	// may still be talking to the workers.
	if e.coord != nil {
		e.coord.close()
	}
	for _, w := range e.workers {
		w.close()
	}
}

// sweep submits one sweep and follows it through GET /v1/jobs/{id} until
// it finishes; the answer is the job's final result body.
func (e *coordEnv) sweep(o op) sample {
	t := time.Now()
	s := sample{op: o}
	status, _, body, err := e.cl.do(http.MethodPost, e.coord.url+"/v1/verify/sweep", o.Body)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, body)
	}
	var acc api.SweepAccepted
	if err == nil {
		err = json.Unmarshal(body, &acc)
	}
	for err == nil {
		var st api.SweepStatus
		status, _, body, err = e.cl.do(http.MethodGet, e.coord.url+"/v1/jobs/"+acc.JobID, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("job %s: status %d", acc.JobID, status)
		}
		if err == nil {
			err = json.Unmarshal(body, &st)
		}
		if err != nil {
			break
		}
		if st.State == "failed" {
			err = fmt.Errorf("job %s failed: %s", acc.JobID, st.Error)
			break
		}
		if st.State == "done" {
			s.body = st.Result
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.ms = msSince(t)
	s.ok, s.err = err == nil, err
	if acc.JobID != "" {
		e.jobIDs = append(e.jobIDs, acc.JobID)
	}
	return s
}

// checkCoordSweep compares a coordinated sweep's merged result with the
// single-node /v1/verify answer in exhaustive-parallel mode.
func checkCoordSweep(ctx context.Context, s *sample) error {
	var q api.Request
	if err := decodeStrict(s.op.Body, &q); err != nil {
		return err
	}
	rep, err := server.RunVerifyRequest(ctx, &q)
	if err != nil {
		return fmt.Errorf("op %d reference: %w", s.op.ID, err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(s.body, want) {
		return fmt.Errorf("op %d: merged sweep %s, single node %s", s.op.ID, s.body, want)
	}
	return nil
}

// retained counts submitted sweep jobs the coordinator still answers for.
func (e *coordEnv) retained() (int, error) {
	n := 0
	for _, id := range e.jobIDs {
		status, _, _, err := e.cl.do(http.MethodGet, e.coord.url+"/v1/jobs/"+id, nil)
		if err != nil {
			return 0, err
		}
		if status == http.StatusOK {
			n++
		}
	}
	return n, nil
}

func runCoord(cfg config, res *result) error {
	ctx := context.Background()
	var env *coordEnv
	setupS, err := timeSetup(setupReps, func() error {
		var err error
		env, err = setupCoord(ctx, cfg)
		return err
	}, func() { env.close() })
	if err != nil {
		return err
	}
	defer env.close()
	res.set("setup_s", setupS, setupReps)
	res.note("load: closed loop, 1 client (1 connection) submitting /v1/verify/sweep to a coordinator on 127.0.0.1 with %d loopback workers (Workers=1 each; no real link); the client polls GET /v1/jobs/{id} every 1 ms",
		coordWorkers)

	span := cfg.seconds
	if cfg.trace {
		span = cfg.seconds / 2
	}
	m0, err := env.cl.metrics(env.coord.url)
	if err != nil {
		return err
	}
	samples, marks := measure(seconds(span), cfg.ops, coordSlices, env.gen, env.sweep)
	m1, err := env.cl.metrics(env.coord.url)
	if err != nil {
		return err
	}
	checkAll(samples, func(s *sample) error { return checkCoordSweep(ctx, s) })
	tally(res, samples)

	if !cfg.trace {
		summarize(res, byTime(samples, marks), marks, "time slices")
		samples = nil
		res.set("live_heap_mb", liveHeapMB(), 0)
		return nil
	}

	kept, err := env.retained()
	if err != nil {
		return err
	}
	sweeps := len(env.jobIDs)
	res.set("server.sweeps_retained", float64(kept), sweeps)
	if sweeps > 0 {
		res.set("server.shards_per_sweep", float64(m1.ShardsDispatched-m0.ShardsDispatched)/float64(sweeps), sweeps)
	}
	res.set("server.shards_retried", float64(m1.ShardsRetried-m0.ShardsRetried), 0)

	// Replay each sweep as the coordinator splits it: prefix shards swept
	// through the worker's shard engine, merged in order.
	var ops []op
	answers := map[int64]*api.VerifyReport{}
	for i := range samples {
		if s := &samples[i]; s.ok {
			ops = append(ops, s.op)
			var rep api.VerifyReport
			if err := json.Unmarshal(s.body, &rep); err != nil {
				return err
			}
			answers[s.op.ID] = &rep
		}
	}
	tr := newTracer()
	run := func(t *tracer, o op) error {
		var q api.Request
		if err := decodeStrict(o.Body, &q); err != nil {
			return err
		}
		got, err := shardedSweep(ctx, t, &q)
		if err != nil {
			return err
		}
		if want := answers[o.ID]; got.Tested != want.Tested || got.Blocked != want.Blocked || got.MaxLinkLoad != want.MaxLinkLoad {
			return fmt.Errorf("replay op %d: %d of %d blocked (max load %d), live %d of %d (%d)",
				o.ID, got.Blocked, got.Tested, got.MaxLinkLoad, want.Blocked, want.Tested, want.MaxLinkLoad)
		}
		return nil
	}
	n, du, dt, err := pairedReplay(tr, ops, time.Now().Add(seconds(cfg.seconds/2)), cfg.ops, run, nil)
	res.attempted += 2 * n
	if err != nil {
		res.failed++
		res.wrongAnswer(err)
	}
	setLayerMetrics(res, tr, n, du, dt)
	return writeTrace(cfg, res, tr)
}
