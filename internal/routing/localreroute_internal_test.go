package routing

import (
	"testing"

	"repro/internal/topology"
)

// TestLocalRerouteVisitBudget pins the deflection walk's visit budget at
// 4+⌊log₂ m⌋ top switches: the budget every published local-reroute
// number was measured with.
func TestLocalRerouteVisitBudget(t *testing.T) {
	for _, tc := range []struct{ m, want int }{
		{1, 4}, {2, 5}, {3, 5}, {4, 6}, {5, 6}, {8, 7}, {9, 7},
	} {
		f := topology.NewFoldedClos(2, tc.m, 2)
		view, err := topology.FailureSet{}.View(f)
		if err != nil {
			t.Fatal(err)
		}
		r := NewLocalReroute(f, view, 1)
		if r.maxVisits != tc.want {
			t.Errorf("m=%d: maxVisits = %d, want %d", tc.m, r.maxVisits, tc.want)
		}
	}
}
