package analysis

import (
	"fmt"
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The golden sweep grid. testdata/sweep_golden.json records, for every
// case below, the result each sweep variant returned when the package still
// exported one function per variant (SweepExhaustive, SweepShardCtx,
// SweepExhaustiveSymParallelProgressCtx, ...). The grid is written against
// the routers and the permutation package only, so the same case list
// drives both the recording and the replay through Sweep
// (TestSweepGolden); fn names the recorded function and the other fields
// its arguments.

// goldenWorkers is the worker count of every recorded parallel sweep. The
// parallel engines' results do not depend on it.
const goldenWorkers = 3

type goldenCase struct {
	id     string
	fn     string
	router string
	r      routing.Router
	hosts  int
	prefix []int
	block  int
	lo, hi int
}

// goldenRouters builds the four router kinds the grid sweeps at one host
// count: the nonblocking Theorem-3 routing, a blocking table router (full
// spray), a pattern-dependent blocking router (greedy-local) and an
// adaptive router that fails to route on an under-provisioned fabric. The
// fabrics have 2 hosts per bottom switch; hosts below the port count
// sweep the first hosts ports.
func goldenRouters(t testing.TB, hosts int) []goldenCase {
	t.Helper()
	r := (hosts + 1) / 2
	paper, err := routing.NewPaperDeterministic(topology.NewFoldedClos(2, 4, r))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := routing.NewNonblockingAdaptive(topology.NewFoldedClos(2, 1, r))
	if err != nil {
		t.Fatal(err)
	}
	return []goldenCase{
		{router: "paper", r: paper, hosts: hosts},
		{router: "spray", r: routing.NewFullSpray(topology.NewFoldedClos(2, 3, r)), hosts: hosts},
		{router: "greedy-local", r: routing.NewGreedyLocal(topology.NewFoldedClos(2, 1, r)), hosts: hosts},
		{router: "adaptive", r: adaptive, hosts: hosts},
	}
}

// goldenGrid lists every recorded case for hosts 5–7: the whole-space
// engines, every level-1 and level-2 prefix shard (full and first-blocked),
// the symmetry-reduced engines at block sizes 2 and 3, every orbit range of
// the Shards(2) plan where the reduction applies (one range otherwise, to
// record the refusal), and the witness re-derivations for the routers that
// block without a routing failure.
func goldenGrid(t testing.TB) []goldenCase {
	t.Helper()
	var out []goldenCase
	for hosts := 5; hosts <= 7; hosts++ {
		for _, base := range goldenRouters(t, hosts) {
			add := func(fn string, c goldenCase, suffix string) {
				c.fn, c.router, c.r, c.hosts = fn, base.router, base.r, hosts
				c.id = fmt.Sprintf("h%d/%s/%s%s", hosts, base.router, fn, suffix)
				out = append(out, c)
			}
			for _, fn := range []string{
				"SweepExhaustive", "SweepExhaustiveFirstBlocked", "SweepExhaustiveOracle",
				"SweepExhaustiveProgressCtx", "SweepExhaustiveParallel",
				"SweepExhaustiveParallelProgressCtx", "SweepFirstRouteErr",
			} {
				add(fn, goldenCase{}, "")
			}
			shards := permutation.PrefixShards(hosts, hosts)
			shards = append(shards, permutation.PrefixShards(hosts, hosts+1)...)
			for _, pfx := range shards {
				for _, fn := range []string{"SweepShardCtx", "SweepShardFirstBlockedCtx"} {
					add(fn, goldenCase{prefix: pfx}, fmt.Sprintf("/prefix=%v", pfx))
				}
			}
			for _, bs := range []int{2, 3} {
				for _, fn := range []string{
					"SweepExhaustiveSym", "SweepExhaustiveSymFirstBlocked",
					"SweepExhaustiveSymParallelProgressCtx",
				} {
					add(fn, goldenCase{block: bs}, fmt.Sprintf("/block=%d", bs))
				}
				ranges := [][2]int{{0, 1}}
				if SymApplicable(base.r, hosts, bs).Applied {
					sym, err := permutation.NewBlockSymmetry(hosts, bs)
					if err != nil {
						t.Fatal(err)
					}
					ranges = sym.Shards(2)
				}
				for _, rg := range ranges {
					add("SweepSymShardCtx", goldenCase{block: bs, lo: rg[0], hi: rg[1]},
						fmt.Sprintf("/block=%d/orbits=%d.%d", bs, rg[0], rg[1]))
				}
			}
			if base.router == "spray" || base.router == "greedy-local" {
				add("SweepSymWitness", goldenCase{}, "/order=sequential")
				add("SweepSymWitness", goldenCase{lo: 1}, "/order=parallel")
			}
		}
	}
	return out
}

// goldenRecord is one recorded call, in the JSON layout of
// testdata/sweep_golden.json.
type goldenRecord struct {
	ID           string    `json:"id"`
	Tested       int       `json:"tested"`
	Blocked      int       `json:"blocked"`
	MaxLinkLoad  int       `json:"max_link_load"`
	FirstBlocked string    `json:"first_blocked,omitempty"`
	RouteErr     string    `json:"route_err,omitempty"`
	Err          string    `json:"err,omitempty"`
	Sym          *SymStats `json:"sym,omitempty"`
}

// newGoldenRecord captures a sweep's outcome.
func newGoldenRecord(id string, res *SweepResult, stats *SymStats, err error) goldenRecord {
	rec := goldenRecord{ID: id, Sym: stats}
	if res != nil {
		rec.Tested, rec.Blocked, rec.MaxLinkLoad = res.Tested, res.Blocked, res.MaxLinkLoad
		if res.FirstBlocked != nil {
			rec.FirstBlocked = res.FirstBlocked.String()
		}
		if res.RouteErr != nil {
			rec.RouteErr = res.RouteErr.Error()
		}
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}
