package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs, computed as
// Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// tail reports the highest percentile that has at least ten samples
// beyond it, or "" when there are too few samples for any.
func tail(xs []float64) string {
	s := sorted(xs)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		beyond := float64(len(s)) * (100 - p) / 100
		if beyond >= 10 {
			// Nearest rank.
			idx := int(math.Ceil(float64(len(s))*p/100)) - 1
			return fmt.Sprintf("p%g=%.6g", p, s[idx])
		}
	}
	return ""
}
