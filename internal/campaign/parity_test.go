package campaign

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// planOracle is the original map-based NONBLOCKINGADAPTIVE scheduler, kept
// verbatim as the reference the slice-based Plan must reproduce exactly.
func planOracle(r *routing.NonblockingAdaptive, p *permutation.Permutation) (tops []int, pairs []permutation.Pair, confs int, err error) {
	if p.N() != r.F.Ports() {
		return nil, nil, 0, fmt.Errorf("routing: pattern over %d endpoints, network has %d", p.N(), r.F.Ports())
	}
	pairs = p.Pairs()
	tops = make([]int, len(pairs))
	n := r.F.N
	topIndex := func(conf, q, key int) int { return conf*(r.C+1)*n + q*n + key }

	bySrc := make(map[int][]int)
	for i, pr := range pairs {
		tops[i] = -1
		if pr.Src != pr.Dst && pr.Src/n != pr.Dst/n {
			v := pr.Src / n
			bySrc[v] = append(bySrc[v], i)
		}
	}
	maxConf := 0
	for _, rem := range bySrc {
		conf := 0
		for len(rem) > 0 {
			usedPart := make([]bool, r.C+1)
			for len(rem) > 0 {
				bestQ, bestKeys := -1, map[int]int(nil)
				for q := 0; q <= r.C; q++ {
					if usedPart[q] {
						continue
					}
					keys := make(map[int]int, len(rem))
					for _, idx := range rem {
						k := r.PartitionKey(q, pairs[idx].Dst)
						if _, dup := keys[k]; !dup {
							keys[k] = idx
						}
					}
					if bestQ == -1 || len(keys) > len(bestKeys) {
						bestQ, bestKeys = q, keys
					}
					if r.FirstFit {
						break
					}
				}
				if bestQ == -1 {
					break
				}
				routed := make(map[int]bool, len(bestKeys))
				for key, idx := range bestKeys {
					tops[idx] = topIndex(conf, bestQ, key)
					routed[idx] = true
				}
				usedPart[bestQ] = true
				next := rem[:0]
				for _, idx := range rem {
					if !routed[idx] {
						next = append(next, idx)
					}
				}
				rem = next
			}
			conf++
		}
		if conf > maxConf {
			maxConf = conf
		}
	}
	return tops, pairs, maxConf, nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAnalyzeParity requires fast.AnalyzePattern(r, p) — whichever
// assignment-free path r takes — to agree with Analyze(r.Route(p)) on the
// error text, Pairs, MaxLoad, ContendedLinks and PairsOn of every link. It
// reports whether r routed p.
func checkAnalyzeParity(t *testing.T, where string, fast, ref *analysis.Checker, net *topology.Network, r routing.Router, p *permutation.Permutation) bool {
	t.Helper()
	errFast := fast.AnalyzePattern(r, p)
	a, errRoute := r.Route(p)
	if errString(errFast) != errString(errRoute) {
		t.Fatalf("%s %s: AnalyzePattern error %q, Route error %q", where, r.Name(), errString(errFast), errString(errRoute))
	}
	if errRoute != nil {
		if fast.Pairs() != 0 || fast.MaxLoad() != 0 || len(fast.LoadedLinks()) != 0 {
			t.Fatalf("%s %s: analysis not empty after routing error", where, r.Name())
		}
		return false
	}
	ref.Analyze(a)
	if fast.Pairs() != ref.Pairs() || fast.MaxLoad() != ref.MaxLoad() {
		t.Fatalf("%s %s: pairs/max load %d/%d, want %d/%d", where, r.Name(),
			fast.Pairs(), fast.MaxLoad(), ref.Pairs(), ref.MaxLoad())
	}
	if got, want := fast.ContendedLinks(), ref.ContendedLinks(); !slices.Equal(got, want) {
		t.Fatalf("%s %s: contended %v, want %v", where, r.Name(), got, want)
	}
	for l := topology.LinkID(0); int(l) < net.NumLinks(); l++ {
		if got, want := fast.PairsOn(l), ref.PairsOn(l); !slices.Equal(got, want) {
			t.Fatalf("%s %s: link %d carries pairs %v, want %v", where, r.Name(), l, got, want)
		}
	}
	return true
}

// TestAnalyzePatternParity drives every fault campaign router and both
// NONBLOCKINGADAPTIVE variants over every sampler scenario at k ≤ 3, on
// full and partial random patterns (which touch detached hosts under pod
// failures) and on surviving-host patterns, requiring the assignment-free
// analysis to match Analyze(r.Route(p)) exactly and the slice-based
// adaptive Plan to match the map-based oracle.
func TestAnalyzePatternParity(t *testing.T) {
	// outcomes[name] counts routed and failed patterns per router, so the
	// test can require both branches of every router to be exercised.
	outcomes := map[string]*[2]int{}
	for _, shape := range [][3]int{{2, 7, 4}, {3, 12, 3}, {2, 5, 4}} {
		f := topology.NewFoldedClos(shape[0], shape[1], shape[2])
		greedy, err := routing.NewNonblockingAdaptive(f)
		if err != nil {
			t.Fatal(err)
		}
		firstFit, _ := routing.NewNonblockingAdaptive(f)
		firstFit.FirstFit = true
		fast, ref := analysis.NewChecker(nil), analysis.NewChecker(f.Net)
		rng := rand.New(rand.NewSource(int64(31 * shape[1])))
		var ps permutation.PatternScratch
		for _, sc := range Scenarios() {
			for k := 0; k <= 3; k++ {
				for sample := 0; sample < 3; sample++ {
					fs, err := SampleFailures(f, sc, k, rng)
					if err != nil {
						t.Fatal(err)
					}
					view, err := fs.View(f)
					if err != nil {
						t.Fatal(err)
					}
					routers := []routing.Router{greedy, firstFit}
					for _, scheme := range DefaultSchemes() {
						if r, err := BuildRouter(f, scheme, view, int64(sample)); err == nil {
							routers = append(routers, r)
						}
					}
					patterns := []*permutation.Permutation{
						permutation.Random(rng, f.Ports()),
						permutation.RandomPartial(rng, f.Ports(), 0.5),
					}
					if alive := view.AliveHosts(); len(alive) > 0 {
						p := permutation.New(f.Ports())
						permutation.RandomAmongInto(rng, p, alive, &ps)
						patterns = append(patterns, p)
					}
					for pi, p := range patterns {
						where := fmt.Sprintf("ftree(%d+%d,%d) %s k=%d sample %d pattern %d",
							f.N, f.M, f.R, sc, k, sample, pi)
						for _, r := range routers {
							o := outcomes[r.Name()]
							if o == nil {
								o = new([2]int)
								outcomes[r.Name()] = o
							}
							if checkAnalyzeParity(t, where, fast, ref, f.Net, r, p) {
								o[0]++
							} else {
								o[1]++
							}
						}
						for _, ad := range []*routing.NonblockingAdaptive{greedy, firstFit} {
							tops, pairs, confs, err := ad.Plan(p)
							wTops, wPairs, wConfs, wErr := planOracle(ad, p)
							if errString(err) != errString(wErr) || confs != wConfs ||
								!reflect.DeepEqual(tops, wTops) || !reflect.DeepEqual(pairs, wPairs) {
								t.Fatalf("%s %s: Plan = %v %v %d %v, oracle %v %v %d %v", where, ad.Name(),
									tops, pairs, confs, err, wTops, wPairs, wConfs, wErr)
							}
						}
					}
				}
			}
		}
		// A pattern over the wrong endpoint count fails identically on
		// every path.
		wrong := permutation.Identity(f.Ports() + 1)
		for _, r := range []routing.Router{greedy, firstFit} {
			checkAnalyzeParity(t, "wrong size", fast, ref, f.Net, r, wrong)
		}
	}
	for name, o := range outcomes {
		if o[0] == 0 || o[1] == 0 {
			t.Errorf("%s: %d routed and %d failed patterns; both outcomes must be covered", name, o[0], o[1])
		}
	}
	if len(outcomes) != 6 {
		t.Errorf("covered routers %v, want the two adaptive variants and the four campaign schemes", outcomes)
	}
}
