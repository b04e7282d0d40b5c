package routing

import (
	"reflect"
	"testing"

	"repro/internal/permutation"
	"repro/internal/topology"
)

func TestLocalRerouteHealthyMatchesDeterministic(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	view, err := topology.FailureSet{}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	lr := NewLocalReroute(f, view, 1)
	det, err := NewPaperDeterministic(f)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			a, err := lr.PathFor(s, d)
			if err != nil {
				t.Fatalf("PathFor(%d,%d): %v", s, d, err)
			}
			b, _ := det.PathFor(s, d)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("pair (%d,%d): healthy local reroute diverged from Theorem-3 path", s, d)
			}
		}
	}
}

func TestLocalRerouteDeterministicAndHealthyPaths(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	fs := topology.FailureSet{
		Tops:   []int{0},
		Trunks: []topology.Trunk{{Bottom: 1, Top: 2}, {Bottom: 3, Top: 1}},
	}
	view, err := fs.View(f)
	if err != nil {
		t.Fatal(err)
	}
	lr := NewLocalReroute(f, view, 42)
	lr2 := NewLocalReroute(f, view, 42)
	for s := 0; s < f.Ports(); s++ {
		for d := 0; d < f.Ports(); d++ {
			p1, err1 := lr.PathFor(s, d)
			p2, err2 := lr2.PathFor(s, d)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("pair (%d,%d): nondeterministic error", s, d)
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("pair (%d,%d): nondeterministic path", s, d)
			}
			if !p1.Valid(f.Net) {
				t.Fatalf("pair (%d,%d): invalid path %v", s, d, p1)
			}
			if !view.PathHealthy(p1) {
				t.Fatalf("pair (%d,%d): path traverses a failed element: %v", s, d, p1)
			}
		}
	}
}

func TestLocalRerouteRejectsDetachedHosts(t *testing.T) {
	f := topology.NewFoldedClos(2, 4, 4)
	view, err := topology.FailureSet{Bottoms: []int{1}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	lr := NewLocalReroute(f, view, 1)
	if _, err := lr.PathFor(2, 0); err == nil {
		t.Fatal("expected error for detached source host")
	}
	if _, err := lr.PathFor(0, 3); err == nil {
		t.Fatal("expected error for detached destination host")
	}
	if _, err := lr.PathFor(0, 6); err != nil {
		t.Fatalf("alive pair should route: %v", err)
	}
}

func TestFaultViewRoutersRejectDetachedHosts(t *testing.T) {
	f := topology.NewFoldedClos(2, 6, 4) // m = n²+2 spares
	view, err := topology.FailureSet{Bottoms: []int{0}}.View(f)
	if err != nil {
		t.Fatal(err)
	}
	p := permutation.New(f.Ports())
	if err := p.Add(0, 5); err != nil { // host 0 is detached
		t.Fatal(err)
	}

	av, err := NewAvoidingAdaptive(f, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := av.Route(p); err == nil {
		t.Fatal("avoiding adaptive should reject detached pair")
	}
	sp, err := NewSparedDeterministicView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.PathFor(0, 5); err == nil {
		t.Fatal("spared deterministic should reject detached pair")
	}
	nr, err := NewNaiveRemapView(f, view)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nr.PathFor(0, 5); err == nil {
		t.Fatal("naive remap should reject detached pair")
	}
}
