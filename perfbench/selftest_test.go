package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// The metric and workload lists in BENCHMARK.json and in the program must
// be the same, names and units, in the same order.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in program", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in program", kind, len(file), len(prog))
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in program", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// Each workload runs a handful of operations untraced and traced: every
// named metric is emitted with its unit, nothing fails, no answer is wrong.
func TestSelfTest(t *testing.T) {
	ops := map[string]int{"serve-hot": 200, "serve-miss": 40, "cli-engines": 20, "coord-sweep": 4}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 11, seconds: 60, ops: ops[w], trace: traced,
				traceOut: filepath.Join(t.TempDir(), "trace.jsonl")}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w, traced, err)
			}
			if !res.correct() || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s trace=%t: attempted %d failed %d wrong %v", w, traced, res.attempted, res.failed, res.wrongs)
			}
			if v := res.values["error_frac"]; v != 0 {
				t.Fatalf("%s trace=%t: error_frac %g", w, traced, v)
			}
			if w == "serve-miss" && traced {
				// The workload is meant to spend most worker time in
				// campaign cells and simulator trials.
				if sh := res.shares[kindFailures] + res.shares[kindSim]; sh <= 0.5 {
					t.Errorf("serve-miss: failures+sim take %.2f of the engine time, want > 0.5 (%v)", sh, res.shares)
				}
			}
			var line jsonResult
			if err := json.Unmarshal([]byte(finalLine(res.correct(), res.attempted, res.failed, res.values, traced)), &line); err != nil {
				t.Fatal(err)
			}
			for _, d := range gated(traced) {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q", w, traced, d.name, m.Unit)
				}
				if _, measured := res.values[d.name]; !measured {
					t.Errorf("%s trace=%t: metric %s not measured", w, traced, d.name)
				}
			}
			if len(line.Metrics) != len(gated(traced)) {
				t.Errorf("%s trace=%t: %d metrics on the final line, want %d", w, traced, len(line.Metrics), len(gated(traced)))
			}
		}
	}
}
