// Package stats provides the summary statistics the Monte-Carlo harness
// aggregates over: sample moments, exact percentiles and window
// fractions. The paper reports sample means, 5th/95th percentile bands
// and "unfair probabilities" (tail masses outside a fairness window);
// these are the primitives that compute them.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN for len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// PercentileSorted returns the p-th percentile (p in [0, 100]) of data
// already in ascending order, interpolating linearly between closest
// ranks (the R-7 definition most plotting tools use). NaN when sorted is
// empty. The caller must not pass unsorted data.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FractionWithin returns the fraction of xs inside [lo, hi] (inclusive).
// Its complement over the fairness window [(1−ε)a, (1+ε)a] is the paper's
// "unfair probability".
func FractionWithin(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	in := 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			in++
		}
	}
	return float64(in) / float64(len(xs))
}

// Summary holds the batch statistics the experiment harness reports for a
// set of trial outcomes at one checkpoint.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P5     float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
}

// Summarize computes a Summary of xs. It does not modify xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, StdDev: nan, Min: nan, Max: nan,
			P5: nan, P25: nan, Median: nan, P75: nan, P95: nan}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	sd := math.Sqrt(Variance(xs))
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: sd,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P5:     percentileSorted(sorted, 5),
		P25:    percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		P75:    percentileSorted(sorted, 75),
		P95:    percentileSorted(sorted, 95),
	}
}
