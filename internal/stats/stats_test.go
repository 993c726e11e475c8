package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestPercentileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4}, {90, 4.6},
	}
	for _, c := range cases {
		if got := PercentileSorted(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("PercentileSorted(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(PercentileSorted(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestPercentileSortedMatches(t *testing.T) {
	// Summarize sorts a copy of its input; PercentileSorted over the
	// sorted data must give the same extremes and quantiles.
	r := rng.New(7)
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = r.Float64()
	}
	s := Summarize(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, c := range []struct{ p, want float64 }{
		{0, s.Min}, {5, s.P5}, {25, s.P25}, {50, s.Median}, {75, s.P75}, {95, s.P95}, {100, s.Max},
	} {
		if got := PercentileSorted(sorted, c.p); got != c.want {
			t.Errorf("p=%v: %v, Summarize %v", c.p, got, c.want)
		}
	}
}

func TestFractionWithin(t *testing.T) {
	xs := []float64{0.1, 0.19, 0.2, 0.21, 0.3}
	if got := FractionWithin(xs, 0.18, 0.22); !almost(got, 0.6, 1e-12) {
		t.Errorf("FractionWithin = %v, want 0.6", got)
	}
	if got := FractionWithin(xs, 0.5, 0.6); got != 0 {
		t.Errorf("empty window = %v", got)
	}
	if !math.IsNaN(FractionWithin(nil, 0, 1)) {
		t.Error("empty data should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	s := Summarize(xs)
	if s.N != 100 {
		t.Errorf("N = %d", s.N)
	}
	if !almost(s.Mean, 50.5, 1e-12) {
		t.Errorf("mean = %v", s.Mean)
	}
	if want := math.Sqrt(100 * 101 / 12.0); !almost(s.StdDev, want, 1e-12) {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
	if !almost(s.Median, 50.5, 1e-12) {
		t.Errorf("median = %v", s.Median)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if !almost(s.P5, 5.95, 1e-12) {
		t.Errorf("P5 = %v", s.P5)
	}
	if !almost(s.P95, 95.05, 1e-12) {
		t.Errorf("P95 = %v", s.P95)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.P95) {
		t.Error("empty Summarize should report NaN fields")
	}
}

// Property: percentile output is within [min, max] and monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sort.Float64s(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := PercentileSorted(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
