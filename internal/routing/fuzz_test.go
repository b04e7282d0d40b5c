package routing_test

import (
	"testing"

	"repro/internal/permutation"
	"repro/internal/routing"
	"repro/internal/topology"
)

// FuzzEdgeColorBipartite checks the König coloring engine on arbitrary
// bipartite multigraphs: it must always succeed within the max degree and
// produce a proper coloring, or reject out-of-range edges.
func FuzzEdgeColorBipartite(f *testing.F) {
	f.Add(2, 2, []byte{0, 0, 1, 1, 0, 1, 1, 0})
	f.Add(1, 1, []byte{0, 0, 0, 0, 0, 0})
	f.Add(3, 2, []byte{})
	f.Fuzz(func(t *testing.T, nl, nr int, raw []byte) {
		if nl < 1 || nl > 8 || nr < 1 || nr > 8 || len(raw) > 64 {
			t.Skip()
		}
		edges := make([][2]int, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]int{int(raw[i]) % nl, int(raw[i+1]) % nr})
		}
		colors, err := routing.EdgeColorBipartite(nl, nr, edges)
		if err != nil {
			t.Fatalf("coloring failed on in-range input: %v", err)
		}
		deg := 0
		dl := make([]int, nl)
		dr := make([]int, nr)
		for _, e := range edges {
			dl[e[0]]++
			dr[e[1]]++
			if dl[e[0]] > deg {
				deg = dl[e[0]]
			}
			if dr[e[1]] > deg {
				deg = dr[e[1]]
			}
		}
		usedL := map[[2]int]bool{}
		usedR := map[[2]int]bool{}
		for i, e := range edges {
			c := colors[i]
			if c < 0 || c >= deg {
				t.Fatalf("edge %d color %d out of [0,%d)", i, c, deg)
			}
			if usedL[[2]int{e[0], c}] || usedR[[2]int{e[1], c}] {
				t.Fatalf("improper coloring at edge %d", i)
			}
			usedL[[2]int{e[0], c}] = true
			usedR[[2]int{e[1], c}] = true
		}
	})
}

// FuzzBenesLooping checks the looping algorithm on arbitrary destination
// vectors: valid full permutations must route edge-disjointly.
func FuzzBenesLooping(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 2, 1, 0})
	f.Add([]byte{1, 0, 3, 2, 5, 4, 7, 6})
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Interpret raw as a permutation of size 4 or 8.
		n := len(raw)
		if n != 4 && n != 8 {
			t.Skip()
		}
		seen := map[int]bool{}
		dst := make([]int, n)
		for i, b := range raw {
			d := int(b) % n
			if seen[d] {
				t.Skip() // not a permutation
			}
			seen[d] = true
			dst[i] = d
		}
		k := 2
		if n == 8 {
			k = 3
		}
		b := topoBenes(k)
		r := routing.NewBenesLooping(b)
		p := permFromDsts(t, dst)
		a, err := r.Route(p)
		if err != nil {
			t.Fatalf("looping failed on %v: %v", dst, err)
		}
		// Edge-disjointness: no link appears in two paths.
		used := map[int32]bool{}
		for i := range a.Pairs {
			for _, l := range a.Path(i).Links {
				if used[int32(l)] {
					t.Fatalf("link %d reused for %v", l, dst)
				}
				used[int32(l)] = true
			}
		}
	})
}

// topoBenes and permFromDsts are tiny fuzz helpers.
func topoBenes(k int) *topology.Benes { return topology.NewBenes(k) }

func permFromDsts(t *testing.T, dst []int) *permutation.Permutation {
	t.Helper()
	p, err := permutation.FromDsts(dst)
	if err != nil {
		t.Skip()
	}
	return p
}

// FuzzRouteTableParity checks the CSR route-table cache against direct
// AppendPairLinks output on fuzz-chosen fat-tree shapes and routing
// schemes: every pair's span must be the deduplicated (first occurrence
// kept) direct link stream, and table metadata must stay consistent.
func FuzzRouteTableParity(f *testing.F) {
	f.Add(2, 4, 3, uint8(0))
	f.Add(2, 3, 3, uint8(1))
	f.Add(3, 9, 2, uint8(2))
	f.Add(2, 2, 2, uint8(3))
	f.Fuzz(func(t *testing.T, n, m, r int, scheme uint8) {
		if n < 1 || n > 3 || m < 1 || m > 9 || r < 1 || r > 4 {
			t.Skip()
		}
		ft := topology.NewFoldedClos(n, m, r)
		var router routing.PairLinkAppender
		switch scheme % 4 {
		case 0:
			router = routing.NewDestMod(ft)
		case 1:
			router = routing.NewPaperDeterministicFolded(ft)
		case 2:
			router = routing.NewFullSpray(ft)
		default:
			k := 1 + int(scheme/4)%m
			ks, err := routing.NewKSpray(ft, k)
			if err != nil {
				t.Skip()
			}
			router = ks
		}
		tab, err := routing.BuildRouteTable(router, ft.Ports())
		if err != nil {
			t.Fatalf("%s on ftree(%d+%d,%d): %v", router.Name(), n, m, r, err)
		}
		for s := 0; s < ft.Ports(); s++ {
			for d := 0; d < ft.Ports(); d++ {
				raw, err := router.AppendPairLinks(s, d, nil)
				if err != nil {
					t.Fatalf("AppendPairLinks(%d,%d): %v", s, d, err)
				}
				seen := map[topology.LinkID]bool{}
				want := []topology.LinkID{}
				for _, l := range raw {
					if !seen[l] {
						seen[l] = true
						want = append(want, l)
					}
				}
				got := tab.PairLinks(s, d)
				if len(got) != len(want) {
					t.Fatalf("pair %d->%d: span %v, want %v", s, d, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pair %d->%d: span %v, want %v", s, d, got, want)
					}
					if int(got[i]) >= tab.NumLinks() {
						t.Fatalf("pair %d->%d: link %d >= NumLinks %d", s, d, got[i], tab.NumLinks())
					}
				}
			}
		}
	})
}

// FuzzFaultLinkParity checks the fault routers' allocation-free link
// streams against the paths they route, on fuzz-chosen shapes and failure
// sets: for every pair, AppendPairLinks must append exactly PathFor's
// links after whatever buf already held (and nothing on error), with the
// same error text, for local rerouting and the spared Theorem-3 scheme.
func FuzzFaultLinkParity(f *testing.F) {
	f.Add(2, 6, 4, []byte{1, 5}, int64(1))
	f.Add(2, 5, 3, []byte{0, 2, 7, 11}, int64(2))
	f.Add(3, 10, 3, []byte{2, 3, 4, 9, 200}, int64(3))
	f.Add(2, 4, 4, []byte{}, int64(4))
	f.Fuzz(func(t *testing.T, n, m, r int, fail []byte, seed int64) {
		if n < 1 || n > 3 || m < 1 || m > 10 || r < 1 || r > 4 || len(fail) > 12 {
			t.Skip()
		}
		ft := topology.NewFoldedClos(n, m, r)
		// Each byte fails one element: a top switch, a bottom switch or a
		// trunk cable, chosen by its residue mod 3.
		var fs topology.FailureSet
		for _, b := range fail {
			i := int(b) / 3
			switch b % 3 {
			case 0:
				fs.Tops = append(fs.Tops, i%m)
			case 1:
				fs.Bottoms = append(fs.Bottoms, i%r)
			default:
				fs.Trunks = append(fs.Trunks, topology.Trunk{Bottom: i % r, Top: (i / r) % m})
			}
		}
		view, err := fs.View(ft)
		if err != nil {
			t.Skip()
		}
		routers := []interface {
			routing.PairRouter
			routing.PairLinkAppender
		}{routing.NewLocalReroute(ft, view, seed)}
		if sp, err := routing.NewSparedDeterministicView(ft, view); err == nil {
			routers = append(routers, sp)
		}
		prefix := []topology.LinkID{7, 3}
		for _, router := range routers {
			for s := 0; s < ft.Ports(); s++ {
				for d := 0; d < ft.Ports(); d++ {
					buf := append(make([]topology.LinkID, 0, 8), prefix...)
					got, errLinks := router.AppendPairLinks(s, d, buf)
					path, errPath := router.PathFor(s, d)
					if (errLinks == nil) != (errPath == nil) ||
						(errLinks != nil && errLinks.Error() != errPath.Error()) {
						t.Fatalf("%s %d->%d: AppendPairLinks error %v, PathFor error %v", router.Name(), s, d, errLinks, errPath)
					}
					if len(got) < len(prefix) || got[0] != prefix[0] || got[1] != prefix[1] {
						t.Fatalf("%s %d->%d: buf prefix clobbered: %v", router.Name(), s, d, got)
					}
					got = got[len(prefix):]
					if errLinks != nil {
						if len(got) != 0 {
							t.Fatalf("%s %d->%d: links %v appended despite error", router.Name(), s, d, got)
						}
						continue
					}
					if len(got) != len(path.Links) {
						t.Fatalf("%s %d->%d: links %v, path %v", router.Name(), s, d, got, path.Links)
					}
					for i := range got {
						if got[i] != path.Links[i] {
							t.Fatalf("%s %d->%d: links %v, path %v", router.Name(), s, d, got, path.Links)
						}
					}
					if !path.Valid(ft.Net) || !view.PathHealthy(path) {
						t.Fatalf("%s %d->%d: invalid or unhealthy path %+v", router.Name(), s, d, path)
					}
				}
			}
		}
	})
}
