package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile whose nearest-rank value
// still has at least ten samples beyond it, with that value. ok is
// false when there are fewer than eleven samples.
func tail(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for pct = 99; pct >= 1; pct-- {
		idx := int(math.Ceil(float64(pct)*float64(n)/100)) - 1
		if n-1-idx >= 10 {
			return pct, s[idx], true
		}
	}
	return 0, s[0], true
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
