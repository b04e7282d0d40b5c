package main

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/design"
	"repro/internal/routing"
)

// sweepPin is an exact sweep verdict: patterns tested and blocked.
type sweepPin struct{ tested, blocked int }

// sweepPins are the exhaustive and symmetry-reduced verdicts of the
// cli-engines jobs. They are exact certificates (the n=9 spray and n=12
// symmetry values are the ones EXPERIMENTS.md and the frontier smoke
// test pin), so any drift is a wrong answer, not noise. Full spray and
// the k-spray/paper/adaptive routings double-check the delta engine, the
// oracle path and the orbit reduction against one another where their
// fabrics coincide.
var sweepPins = map[string]sweepPin{
	"delta spray/0 ftree(3+5,3)":     {362880, 345168},
	"delta spray/2 ftree(3+5,3)":     {362880, 332678},
	"delta paper/0 ftree(3+9,3)":     {362880, 0},
	"delta spray/0 ftree(2+4,4)":     {40320, 36592},
	"sym spray/0 ftree(3+5,3)":       {362880, 345168},
	"sym spray/0 ftree(4+8,3)":       {479001600, 476554752},
	"sym spray/0 ftree(2+3,5)":       {3628800, 3554272},
	"sym spray/0 ftree(5+10,2)":      {3628800, 3254400},
	"sym spray/0 ftree(5+6,2)":       {3628800, 3254400},
	"oracle adaptive/0 ftree(2+6,4)": {40320, 0},
}

func pinKey(j *job, network string) string {
	return fmt.Sprintf("%s %s/%d %s", j.Engine, j.Routing, j.Width, network)
}

func checkSweep(j *job, network string, res *analysis.SweepResult) error {
	if res.RouteErr != nil {
		return fmt.Errorf("%s: routing failed: %v", network, res.RouteErr)
	}
	key := pinKey(j, network)
	pin, ok := sweepPins[key]
	if !ok {
		return fmt.Errorf("no pinned verdict for %s", key)
	}
	if res.Tested != pin.tested || res.Blocked != pin.blocked {
		return fmt.Errorf("%s: %d of %d blocked, want %d of %d", key, res.Blocked, res.Tested, pin.blocked, pin.tested)
	}
	return nil
}

// checkWorstCase re-scores the returned pattern with a fresh Checker: the
// search must report the contention its pattern really has.
func checkWorstCase(r routing.Router, res *analysis.WorstCaseResult) error {
	if res.Permutation == nil {
		return fmt.Errorf("worst-case search returned no pattern")
	}
	c := analysis.NewChecker(nil)
	if err := c.AnalyzePattern(r, res.Permutation); err != nil {
		return fmt.Errorf("re-score worst case: %w", err)
	}
	if c.MaxLoad() != res.MaxLoad || c.ContendedCount() != res.ContendedLinks {
		return fmt.Errorf("worst case claims max load %d on %d links, pattern has %d on %d",
			res.MaxLoad, res.ContendedLinks, c.MaxLoad(), c.ContendedCount())
	}
	return nil
}

// designCandidates pins each catalog's enumerated candidate count.
var designCandidates = map[string]int{"smoke": 76, "wide": 160}

// checkDesign replays every frontier certificate from scratch and checks
// the enumeration size.
func checkDesign(catalog string, rep *api.DesignReport) error {
	if want := designCandidates[catalog]; rep.Candidates != want {
		return fmt.Errorf("design %s: %d candidates, want %d", catalog, rep.Candidates, want)
	}
	if len(rep.Frontier) == 0 {
		return fmt.Errorf("design %s: empty frontier", catalog)
	}
	for i := range rep.Frontier {
		if err := design.ReplayCondition(&rep.Frontier[i]); err != nil {
			return err
		}
	}
	return nil
}
