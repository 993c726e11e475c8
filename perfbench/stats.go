package main

import (
	"cmp"
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to count as measured rather than as the largest few samples.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// among n sorted samples: the smallest r with r/n >= p/100. p*n is
// formed before dividing so that exact ranks (p=90, n=100) stay exact.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	return min(max(r, 1), n)
}

// beyond reports how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// enoughFor reports whether n samples leave at least minTail of them
// beyond the p-th percentile.
func enoughFor(n int, p float64) bool { return beyond(n, p) >= minTail }

// percentile returns the nearest-rank p-th percentile of xs, which it
// does not modify. It is NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// covered returns the length of the union of ivs clipped to [lo, hi):
// overlapping and nested intervals count once.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	var total int64
	curS, curE := int64(0), int64(0)
	for i, iv := range clipped {
		switch {
		case i == 0:
			curS, curE = iv.start, iv.end
		case iv.start > curE:
			total += curE - curS
			curS, curE = iv.start, iv.end
		default:
			curE = max(curE, iv.end)
		}
	}
	if len(clipped) > 0 {
		total += curE - curS
	}
	return total
}

// selfTime is the part of parent that none of its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent.start, parent.end, children)
}
