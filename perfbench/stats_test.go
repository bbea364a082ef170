package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and
	// statistics.median(xs) from Python 3.11.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5, 2.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
	if median(nil) != 0 {
		t.Error("median of no values is not 0")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{0.25, 4}); math.Abs(g-1) > 1e-12 {
		t.Errorf("geomean(0.25, 4) = %v, want 1", g)
	}
	if g := geomean([]float64{0.5, 0.5, 0.5}); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("geomean of equal values = %v, want 0.5", g)
	}
	for _, xs := range [][]float64{nil, {1, 0}, {1, -2}} {
		if g := geomean(xs); g != 0 {
			t.Errorf("geomean(%v) = %v, want 0", xs, g)
		}
	}
}

func TestRatioOfMissingBaseIsZero(t *testing.T) {
	if r := ratio(3, 0); r != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", r)
	}
	if r := ratio(3, 4); r != 0.75 {
		t.Errorf("ratio(3, 4) = %v, want 0.75", r)
	}
}
