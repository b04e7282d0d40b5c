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
		r := NewLocalReroute(topology.NewFoldedClos(2, tc.m, 2), nil, 1)
		if r.maxVisits != tc.want {
			t.Errorf("m=%d: maxVisits = %d, want %d", tc.m, r.maxVisits, tc.want)
		}
	}
}
