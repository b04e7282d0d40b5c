// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one named workload for a fixed time from
// a seed, checks every answer against a reference, and prints every metric
// by name with its unit; the last line of standard output is one JSON
// object with the gated metrics. It exits 1 when an operation failed or
// answered wrongly. See README.md in this directory.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated end-to-end metrics every workload reports with
// --trace 0. They match BENCHMARK.json's end_to_end list.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"live_heap_mb", "MB"},
}

// workloadOnly are end-to-end metrics printed but not gated. p99 rests
// on the slowest 1% of operations, which stalls of a shared machine move
// by more than any bound the gate allows; the hit/miss split exists only
// on serve-hot; error_frac is zero on a healthy run (the gate's failed
// count carries it).
var workloadOnly = []metricDef{
	{"p99_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p99_ms", "ms"},
	{"error_frac", "frac"},
}

// perLayer are the per-layer metrics every workload reports with
// --trace 1 (zero where a workload does not reach the layer). They match
// BENCHMARK.json's per_layer list.
var perLayer = []metricDef{
	{"api.decode_us", "us"},
	{"api.key_us", "us"},
	{"api.encode_us", "us"},
	{"api.response_bytes", "bytes"},
	{"store.get_us", "us"},
	{"store.hit_frac", "frac"},
	{"store.put_us", "us"},
	{"store.puts", "count"},
	{"server.handler_overhead_us", "us"},
	{"server.job_run_p50_ms", "ms"},
	{"server.job_run_p99_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.rejected", "count"},
	{"server.shards_per_sweep", "count"},
	{"server.shards_retried", "count"},
	{"server.sweeps_retained", "count"},
	{"topology.build_ms", "ms"},
	{"topology.builds", "count"},
	{"routing.router_build_ms", "ms"},
	{"routing.table_build_ms", "ms"},
	{"routing.table_entries", "count"},
	{"routing.route_errors", "count"},
	{"analysis.sweep_ms", "ms"},
	{"analysis.patterns", "count"},
	{"analysis.patterns_per_s", "1/s"},
	{"analysis.lemma1_ms", "ms"},
	{"permutation.orbit_enum_ms", "ms"},
	{"permutation.orbits", "count"},
	{"permutation.sym_applied_frac", "frac"},
	{"sim.run_ms", "ms"},
	{"sim.packets", "count"},
	{"sim.packets_per_s", "1/s"},
	{"campaign.run_ms", "ms"},
	{"campaign.cells", "count"},
	{"campaign.cell_ms", "ms"},
	{"campaign.route_failures", "count"},
	{"design.plan_ms", "ms"},
	{"design.candidates", "count"},
	{"design.tier0_frac", "frac"},
	{"design.fresh_probes", "count"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_per_op", "count"},
}

var workloads = []string{"serve-hot", "serve-miss", "cli-engines", "coord-sweep"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// The self-test sets these two; the command line leaves them zero.
	ops      int    // > 0: stop after this many operations, not at the deadline
	traceOut string // span file of a traced run ("" = defaultTracePath)
}

// result is one run's outcome.
type result struct {
	attempted, failed, wrong int
	values                   map[string]float64
	samples                  map[string]int // sample count behind a timing
	notes                    []string
	wrongs                   []string // the first few wrong answers
	// shares is each request kind's share of the engine time of a traced
	// serve-miss replay.
	shares map[string]float64
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	if samples > 0 {
		r.samples[name] = samples
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrongAnswer records an answer that failed its check.
func (r *result) wrongAnswer(err error) {
	r.wrong++
	if len(r.wrongs) < 5 {
		r.wrongs = append(r.wrongs, err.Error())
	}
}

func (r *result) correct() bool { return r.wrong == 0 }

// gated lists the metrics of the final JSON line for this mode.
func gated(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func run(cfg config) (*result, error) {
	res := newResult()
	var err error
	switch cfg.workload {
	case "serve-hot":
		err = runServe(cfg, res, true)
	case "serve-miss":
		err = runServe(cfg, res, false)
	case "cli-engines":
		err = runEngines(cfg, res)
	case "coord-sweep":
		err = runCoord(cfg, res)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, err
	}
	if res.attempted > 0 {
		res.set("error_frac", float64(res.failed)/float64(res.attempted), res.attempted)
	}
	return res, nil
}

func printMetrics(res *result, defs []metricDef) {
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-30s %14.6g %s", d.name, v, d.unit)
		if n := res.samples[d.name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func finalLine(correct bool, attempted, failed int, values map[string]float64, trace bool) string {
	out := jsonResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, d := range gated(trace) {
		v := values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// JSON has no infinity. Only latencies can be infinite (a
			// failed operation enters as +Inf), and for them the largest
			// number reads as the worst result, never as a gain.
			v = math.MaxFloat64
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func main() {
	var cfg config
	var traceFlag, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, " | "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same operation stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 1, "run N times with seeds seed..seed+N-1 and print each metric's median and quartiles")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.workload == "" || repeat < 1 || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	fmt.Println(fingerprint().String())
	if repeat > 1 {
		os.Exit(repeatRuns(cfg, repeat))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(cfg, res)
	fmt.Println(finalLine(res.correct(), res.attempted, res.failed, res.values, cfg.trace))
	if !res.correct() || res.failed > 0 {
		os.Exit(1)
	}
}

// report prints a run's notes, wrong answers and every metric it measured.
func report(cfg config, res *result) {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, w := range res.wrongs {
		fmt.Fprintln(os.Stderr, "wrong answer:", w)
	}
	fmt.Printf("workload %s seed %d: attempted %d, failed %d, wrong %d\n",
		cfg.workload, cfg.seed, res.attempted, res.failed, res.wrong)
	if cfg.trace {
		printMetrics(res, perLayer)
		return
	}
	printMetrics(res, append(append([]metricDef(nil), endToEnd...), workloadOnly...))
}

// repeatRuns runs the workload n times over consecutive seeds and prints
// each metric's median and quartiles (the grid → grouped-summary step),
// then a final line carrying the medians.
func repeatRuns(cfg config, n int) int {
	per := map[string][]float64{}
	attempted, failed, ok := 0, 0, true
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		res, err := run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, w := range res.wrongs {
			fmt.Fprintln(os.Stderr, "wrong answer:", w)
		}
		attempted += res.attempted
		failed += res.failed
		ok = ok && res.correct()
		for k, v := range res.values {
			per[k] = append(per[k], v)
		}
		fmt.Printf("run %d/%d seed %d: attempted %d, failed %d, wrong %d\n", i+1, n, c.seed, res.attempted, res.failed, res.wrong)
	}
	defs := append(append(append([]metricDef(nil), endToEnd...), workloadOnly...), perLayer...)
	fmt.Printf("%-30s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "unit")
	medians := map[string]float64{}
	for _, d := range defs {
		xs, okm := per[d.name]
		if !okm {
			continue
		}
		q1, med, q3 := quartiles(xs)
		medians[d.name] = med
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-30s %12.6g %12.6g %12.6g %8.4f  %s\n", d.name, q1, med, q3, spread, d.unit)
	}
	fmt.Println(finalLine(ok, attempted, failed, medians, cfg.trace))
	if !ok || failed > 0 {
		return 1
	}
	return 0
}
