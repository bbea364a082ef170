package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the first, second and third quartile of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the one
// the spread of a metric across runs is judged by. One value is its own
// quartiles; an empty slice gives zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		// Python's integer arithmetic, including its clamp of j to
		// [1, n-1], which extrapolates for very small samples.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// geomean returns the geometric mean of xs, or 0 when xs is empty or holds
// a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns num/den, or 0 when den is 0: a ratio whose base did not
// occur reads as 0, never as Inf or NaN in the JSON report.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
