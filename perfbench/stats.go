package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of raw samples by linear
// interpolation between order statistics. It never bins: every op's value
// is kept, so a percentile is as fine as the samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// beyond counts the samples strictly above v.
func beyond(samples []float64, v float64) int {
	n := 0
	for _, s := range samples {
		if s > v {
			n++
		}
	}
	return n
}

// tailOK reports whether the q-quantile has at least ten samples beyond it,
// the rule for printing a tail percentile.
func tailOK(samples []float64, q float64) bool {
	return beyond(samples, quantile(samples, q)) >= 10
}

func maxOf(samples []float64) float64 {
	m := math.Inf(-1)
	for _, s := range samples {
		m = math.Max(m, s)
	}
	return m
}
