package analysis

import (
	"context"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/routing"
)

// goldenSpec maps a recorded variant to the Sweep call that replaces it.
// Progress is attached wherever the spec admits it, so the replay also
// proves that progress reporting leaves results unchanged.
func goldenSpec(t *testing.T, c goldenCase) (routing.Router, SweepSpec) {
	r := c.r
	var spec SweepSpec
	switch c.fn {
	case "SweepExhaustive", "SweepExhaustiveProgressCtx", "SweepFirstRouteErr":
	case "SweepExhaustiveFirstBlocked":
		spec.FirstBlocked = true
	case "SweepExhaustiveOracle":
		r = struct{ routing.Router }{r}
	case "SweepExhaustiveParallel", "SweepExhaustiveParallelProgressCtx":
		spec.Sharded, spec.Workers = true, goldenWorkers
	case "SweepShardCtx":
		spec.Prefix = c.prefix
	case "SweepShardFirstBlockedCtx":
		spec.Prefix, spec.FirstBlocked = c.prefix, true
	case "SweepExhaustiveSym":
		spec.SymBlock = c.block
	case "SweepExhaustiveSymFirstBlocked":
		spec.SymBlock, spec.FirstBlocked = c.block, true
	case "SweepExhaustiveSymParallelProgressCtx":
		spec.SymBlock, spec.Sharded, spec.Workers = c.block, true, goldenWorkers
	case "SweepSymShardCtx":
		spec.SymBlock, spec.Orbits = c.block, []int{c.lo, c.hi}
	case "SweepSymWitness":
		spec.FirstBlocked, spec.Sharded = true, c.lo == 1
	default:
		t.Fatalf("%s: no SweepSpec for %s", c.id, c.fn)
	}
	return r, spec
}

// TestSweepGolden replays the golden grid through Sweep and requires every
// field of every recorded result — counters, FirstBlocked witness,
// RouteErr text, returned error and SymStats — to match the recording, and
// the progress deltas to sum to the final counters.
func TestSweepGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/sweep_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var recs []goldenRecord
	if err := json.Unmarshal(raw, &recs); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenRecord, len(recs))
	for _, rec := range recs {
		want[rec.ID] = rec
	}
	grid := goldenGrid(t)
	if len(grid) != len(recs) {
		t.Fatalf("grid has %d cases, recording %d", len(grid), len(recs))
	}
	ctx := context.Background()
	for _, c := range grid {
		r, spec := goldenSpec(t, c)
		var tested, blocked atomic.Int64
		if !(spec.SymBlock > 0 && spec.FirstBlocked) {
			spec.Progress = func(dt, db int) {
				tested.Add(int64(dt))
				blocked.Add(int64(db))
			}
		}
		res, stats, err := Sweep(ctx, r, c.hosts, spec)
		if (stats != nil) != (spec.SymBlock > 0) {
			t.Fatalf("%s: SymStats %v for SymBlock %d", c.id, stats, spec.SymBlock)
		}
		if err == nil && res.RouteErr == nil && (tested.Load() != int64(res.Tested) || blocked.Load() != int64(res.Blocked)) &&
			spec.Progress != nil {
			t.Fatalf("%s: progress deltas sum to (%d, %d), result (%d, %d)",
				c.id, tested.Load(), blocked.Load(), res.Tested, res.Blocked)
		}
		switch c.fn {
		case "SweepFirstRouteErr":
			res = &SweepResult{RouteErr: res.RouteErr}
		case "SweepSymWitness":
			res = &SweepResult{FirstBlocked: res.FirstBlocked}
		}
		got, _ := json.Marshal(newGoldenRecord(c.id, res, stats, err))
		exp, _ := json.Marshal(want[c.id])
		if string(got) != string(exp) {
			t.Errorf("%s:\n got %s\nwant %s", c.id, got, exp)
		}
	}
}
