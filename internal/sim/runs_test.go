package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// RunTrials, LoadSweep and CompareToCrossbarParallel promise the same
// output at every worker count: permutations are drawn on the caller's
// goroutine in trial order and results merge in run order. These tests
// compare every pool shape against the inline run (workers = 1) with exact
// equality — every float, every slice, every Metrics field and the
// reported error — and run under -race in CI.

// workerCounts are the pool shapes each function must agree across: inline,
// two and four workers, and GOMAXPROCS.
var workerCounts = []int{1, 2, 4, 0}

// patternFailRouter fails every pattern whose host 0 sends to a multiple
// of three and names the pattern in the error, so trials fail with
// distinguishable errors and the lowest-index one must be reported.
type patternFailRouter struct{ routing.Router }

func (r patternFailRouter) Route(p *permutation.Permutation) (*routing.Assignment, error) {
	if p.Dst(0)%3 == 0 {
		return nil, fmt.Errorf("injected failure on %s", p)
	}
	return r.Router.Route(p)
}

// sameError reports whether two errors are both nil or carry one text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func TestRunTrialsParallelMatchesSequential(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 6)
	paper, err := routing.NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	plain := Config{PacketFlits: 4, PacketsPerPair: 4, Arbiter: RoundRobin}
	metered := plain
	metered.Collector = NewMetricsCollector()
	for _, c := range []struct {
		name    string
		r       routing.Router
		cfg     Config
		wantErr bool
	}{
		{"plain", paper, plain, false},
		{"metrics", paper, metered, false},
		{"dest-mod-metrics", routing.NewDestMod(f), metered, false},
		{"failing", patternFailRouter{paper}, plain, true},
	} {
		want, wantErr := RunTrials(f.Net, c.r, f.Ports(), 9, 1, 3, c.cfg)
		if (wantErr != nil) != c.wantErr {
			t.Fatalf("%s: inline error %v, want error %v", c.name, wantErr, c.wantErr)
		}
		for _, res := range want {
			if (res.Metrics != nil) != (c.cfg.Collector != nil) {
				t.Fatalf("%s: trial Metrics presence %v", c.name, res.Metrics != nil)
			}
		}
		for _, workers := range workerCounts {
			got, err := RunTrials(f.Net, c.r, f.Ports(), 9, workers, 3, c.cfg)
			if !sameError(err, wantErr) {
				t.Fatalf("%s workers=%d: error %v, want %v", c.name, workers, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: trials diverge from the inline run", c.name, workers)
			}
			if !reflect.DeepEqual(AggregateMetrics(got), AggregateMetrics(want)) {
				t.Fatalf("%s workers=%d: aggregated metrics diverge", c.name, workers)
			}
		}
	}
}

func TestRunTrialsParallelSequentialFirstError(t *testing.T) {
	// A router that fails on routing must surface the same (first) error as
	// the inline run regardless of which worker hits it.
	f := topology.NewFoldedClos(2, 2, 3)
	bad := &routing.FtreeSinglePath{F: f, RouterName: "bad", TopChoice: func(s, d int) int { return 99 }}
	cfg := Config{PacketFlits: 2, PacketsPerPair: 1}
	_, errSeq := RunTrials(f.Net, bad, f.Ports(), 4, 1, 1, cfg)
	if errSeq == nil {
		t.Fatal("expected inline error")
	}
	_, errPar := RunTrials(f.Net, bad, f.Ports(), 4, 4, 1, cfg)
	if errPar == nil {
		t.Fatal("expected parallel error")
	}
	if errPar.Error() != errSeq.Error() {
		t.Fatalf("parallel error %q, inline %q", errPar, errSeq)
	}
}

func TestLoadSweepParallelMatchesSequential(t *testing.T) {
	f := topology.NewFoldedClos(2, 2, 4)
	r := routing.NewDestMod(f)
	pairs := permPairsFor(permutation.LocalRotate(2, 4))
	metered := openCfg(0)
	metered.Collector = NewMetricsCollector()
	for _, c := range []struct {
		name    string
		rates   []float64
		base    OpenLoopConfig
		wantErr bool
	}{
		{"plain", []float64{0.1, 0.3, 0.5, 0.8, 1.0}, openCfg(0), false},
		{"metrics", []float64{0.2, 0.5, 0.9}, metered, false},
		{"bad-rate", []float64{0.2, 1.5, 0.4, -1}, metered, true},
	} {
		want, wantErr := LoadSweep(f.Net, pairs, PairPathsFunc(r), c.rates, 1, c.base)
		if (wantErr != nil) != c.wantErr {
			t.Fatalf("%s: inline error %v, want error %v", c.name, wantErr, c.wantErr)
		}
		for i, pt := range want {
			if (pt.Metrics != nil) != (c.base.Collector != nil) {
				t.Fatalf("%s: point %d Metrics presence %v", c.name, i, pt.Metrics != nil)
			}
		}
		for _, workers := range workerCounts {
			got, err := LoadSweep(f.Net, pairs, PairPathsFunc(r), c.rates, workers, c.base)
			if !sameError(err, wantErr) {
				t.Fatalf("%s workers=%d: error %v, want %v", c.name, workers, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: sweep diverges:\n got  %+v\n want %+v", c.name, workers, got, want)
			}
		}
	}
}

func TestCompareToCrossbarParallelMatchesSequential(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 6)
	r := routing.NewDestMod(f)
	plain := Config{PacketFlits: 4, PacketsPerPair: 2}
	metered := plain
	metered.Collector = NewMetricsCollector()
	for _, c := range []struct {
		name    string
		r       routing.Router
		cfg     Config
		wantErr bool
	}{
		{"plain", r, plain, false},
		{"collector-dropped", r, metered, false},
		{"failing", patternFailRouter{r}, plain, true},
	} {
		want, wantErr := CompareToCrossbarParallel(f.Net, c.r, f.Ports(), 7, 1, 11, c.cfg)
		if (wantErr != nil) != c.wantErr {
			t.Fatalf("%s: inline error %v, want error %v", c.name, wantErr, c.wantErr)
		}
		for _, workers := range workerCounts {
			got, err := CompareToCrossbarParallel(f.Net, c.r, f.Ports(), 7, workers, 11, c.cfg)
			if !sameError(err, wantErr) {
				t.Fatalf("%s workers=%d: error %v, want %v", c.name, workers, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: summary diverges:\n got  %+v\n want %+v", c.name, workers, got, want)
			}
		}
	}
}
