package main

import (
	"encoding/json"
	"math"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// A failed operation enters a latency list as +Inf. The median over
// slices must then be the exact middle value, or +Inf when most slices
// failed, and never NaN.
func TestMedianWithInfiniteSlices(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, inf, inf}, 3},
		{[]float64{1, inf, 2}, 2},
		{[]float64{1, inf, inf}, inf},
		{[]float64{inf, 4, 2, inf}, inf},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// An infinite or undefined latency must reach the final line as the worst
// value, not as zero.
func TestFinalLineNonFiniteIsWorst(t *testing.T) {
	values := map[string]float64{"p50_ms": math.Inf(1), "p90_ms": math.NaN(), "ops_per_s": 3}
	var line jsonResult
	if err := json.Unmarshal([]byte(finalLine(true, 5, 2, values, false)), &line); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p50_ms", "p90_ms"} {
		if v := line.Metrics[name].Value; v != math.MaxFloat64 {
			t.Errorf("%s = %g, want the largest float64", name, v)
		}
	}
}
