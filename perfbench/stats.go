package main

import (
	"math"
	"sort"
	"time"
)

// median of xs (NaN for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-th sample quantile of xs by linear interpolation
// (NaN for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianOf is the median of f over the iterations.
func medianOf(its []*iteration, f func(*iteration) float64) float64 {
	xs := make([]float64, 0, len(its))
	for _, it := range its {
		xs = append(xs, f(it))
	}
	return median(xs)
}

// durationQuantileMS is the q-th quantile of ds in milliseconds, or na
// for no samples.
func durationQuantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return na
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e6
	}
	return quantile(xs, q)
}
