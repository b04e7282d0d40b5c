package main

import "time"

// pairedReplay runs each operation twice, untraced and traced, in
// alternating order so neither side always runs on warmer caches. run
// executes one operation with the given tracer (nil = untraced); after
// each traced run, extra (if set) records the out-of-op probe spans. It
// stops at the deadline (or after maxOps operations) and returns the
// operation count and both summed durations.
func pairedReplay(tr *tracer, ops []op, deadline time.Time, maxOps int,
	run func(tr *tracer, o op) error, extra func(tr *tracer, o op) error) (n int, untraced, traced time.Duration, err error) {
	for i, o := range ops {
		if (maxOps > 0 && i >= maxOps) || (maxOps == 0 && i > 0 && !time.Now().Before(deadline)) {
			break
		}
		tr.op = o.ID
		timeOne := func(t *tracer) (time.Duration, error) {
			start := time.Now()
			var root int
			if t != nil {
				root = t.begin("op." + o.Kind)
			}
			err := run(t, o)
			if t != nil {
				t.end(root)
			}
			return time.Since(start), err
		}
		var du, dt time.Duration
		if i%2 == 0 {
			if du, err = timeOne(nil); err == nil {
				dt, err = timeOne(tr)
			}
		} else {
			if dt, err = timeOne(tr); err == nil {
				du, err = timeOne(nil)
			}
		}
		if err != nil {
			return n, untraced, traced, err
		}
		untraced += du
		traced += dt
		n++
		if extra != nil {
			if err = extra(tr, o); err != nil {
				return n, untraced, traced, err
			}
		}
	}
	return n, untraced, traced, nil
}

// setLayerMetrics derives the per-layer metrics from a traced replay of
// nOps operations. Timings are mean self time per call of the named span;
// counts are per call of the layer's entry span (or per operation where
// no span exists). Layers the workload never reached stay zero.
func setLayerMetrics(res *result, tr *tracer, nOps int, untraced, traced time.Duration) {
	for _, d := range perLayer {
		if _, ok := res.values[d.name]; !ok {
			res.values[d.name] = 0
		}
	}
	if nOps == 0 {
		return
	}
	st := tr.stats()
	c := tr.counts
	calls := func(name string) int {
		if s := st[name]; s != nil {
			return s.calls
		}
		return 0
	}
	selfS := func(name string) float64 {
		if s := st[name]; s != nil {
			return float64(s.selfN) / 1e9
		}
		return 0
	}
	mean := func(metric, span string, scale float64) {
		if n := calls(span); n > 0 {
			res.set(metric, selfS(span)/float64(n)*scale, n)
		}
	}
	per := func(metric string, v float64, n int) {
		if n > 0 {
			res.set(metric, v/float64(n), n)
		}
	}
	const us, ms = 1e6, 1e3
	mean("api.decode_us", "api.decode", us)
	mean("api.key_us", "api.key", us)
	mean("api.encode_us", "api.encode", us)
	mean("store.get_us", "store.get", us)
	mean("store.put_us", "store.put", us)
	mean("topology.build_ms", "topology.build", ms)
	per("topology.builds", c["topology.builds"], nOps)
	mean("routing.router_build_ms", "routing.router_build", ms)
	mean("routing.table_build_ms", "routing.table_build", ms)
	per("routing.table_entries", c["routing.table_entries"], int(c["routing.tables"]))
	per("routing.route_errors", c["routing.route_errors"], nOps)
	mean("analysis.sweep_ms", "analysis.sweep", ms)
	per("analysis.patterns", c["analysis.patterns"], calls("analysis.sweep"))
	if s := selfS("analysis.sweep"); s > 0 {
		res.set("analysis.patterns_per_s", c["analysis.patterns"]/s, calls("analysis.sweep"))
	}
	mean("analysis.lemma1_ms", "analysis.lemma1", ms)
	mean("permutation.orbit_enum_ms", "permutation.orbit_enum", ms)
	per("permutation.orbits", c["permutation.orbits"], int(c["permutation.sym_applied"]))
	per("permutation.sym_applied_frac", c["permutation.sym_applied"], int(c["permutation.sym_sweeps"]))
	mean("sim.run_ms", "sim.run", ms)
	per("sim.packets", c["sim.packets"], calls("sim.run"))
	if s := selfS("sim.run"); s > 0 {
		res.set("sim.packets_per_s", c["sim.packets"]/s, calls("sim.run"))
	}
	mean("campaign.run_ms", "campaign.run", ms)
	per("campaign.cells", c["campaign.cells"], calls("campaign.run"))
	if cells := c["campaign.cells"]; cells > 0 {
		res.set("campaign.cell_ms", selfS("campaign.run")*ms/cells, int(cells))
	}
	per("campaign.route_failures", c["campaign.route_failures"], calls("campaign.run"))
	mean("design.plan_ms", "design.plan", ms)
	per("design.candidates", c["design.candidates"], calls("design.plan"))
	if cand := c["design.candidates"]; cand > 0 {
		res.set("design.tier0_frac", c["design.tier0"]/cand, int(cand))
	}
	per("design.fresh_probes", c["design.fresh_probes"], calls("design.plan"))

	res.set("trace.untraced_ops_per_s", float64(nOps)/untraced.Seconds(), nOps)
	res.set("trace.traced_ops_per_s", float64(nOps)/traced.Seconds(), nOps)
	res.set("trace.overhead_pct", (traced.Seconds()/untraced.Seconds()-1)*100, nOps)
	res.set("trace.spans_per_op", float64(len(tr.spans))/float64(nOps), nOps)
}

// writeTrace stores the spans where the run's configuration says.
func writeTrace(cfg config, res *result, tr *tracer) error {
	path := cfg.traceOut
	if path == "" {
		path = defaultTracePath(cfg)
	}
	if err := tr.write(path); err != nil {
		return err
	}
	res.note("trace: %d spans written to %s", len(tr.spans), path)
	return nil
}
