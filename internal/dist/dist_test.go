package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		// I_x(1,1) = x (uniform CDF).
		{1, 1, 0.3, 0.3},
		{1, 1, 0.85, 0.85},
		// I_x(2,1) = x².
		{2, 1, 0.5, 0.25},
		// I_x(1,2) = 1 − (1−x)² = 2x − x².
		{1, 2, 0.5, 0.75},
		// Symmetric beta at its median.
		{5, 5, 0.5, 0.5},
		{40, 40, 0.5, 0.5},
	}
	for _, c := range cases {
		got := RegIncBeta(c.a, c.b, c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("I_%v(%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
	if RegIncBeta(2, 3, -0.5) != 0 || RegIncBeta(2, 3, 1.5) != 1 {
		t.Error("out-of-range x should clamp to {0,1}")
	}
	if !math.IsNaN(RegIncBeta(0, 1, 0.5)) {
		t.Error("non-positive shape should be NaN")
	}
}

func TestBetaMomentsAndCDF(t *testing.T) {
	d := Beta{Alpha: 2, Beta: 6}
	if got, want := d.Mean(), 0.25; math.Abs(got-want) > 1e-15 {
		t.Errorf("mean = %v", got)
	}
	if got, want := d.Variance(), 2.0*6.0/(64*9); math.Abs(got-want) > 1e-15 {
		t.Errorf("variance = %v, want %v", got, want)
	}
	// CDF is a proper CDF: monotone, 0 at 0, 1 at 1.
	prev := -1.0
	for x := 0.0; x <= 1.0001; x += 0.05 {
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = c
	}
	if d.CDF(0) != 0 || d.CDF(1) != 1 {
		t.Error("CDF endpoints wrong")
	}
	// Interval mass complements split around the median.
	med := 0.5
	total := d.IntervalProb(0, med) + d.IntervalProb(med, 1)
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("interval masses sum to %v", total)
	}
	if d.IntervalProb(0.8, 0.2) != 0 {
		t.Error("inverted interval should be 0")
	}
}

func TestBetaCDFMatchesEmpirical(t *testing.T) {
	// The ML-PoS limit shapes used in anger: Beta(a/w, b/w). Check the
	// CDF against a large simulated Beta sample built from ratios of
	// gamma-like draws is overkill; instead verify against a numerical
	// integration of the density.
	d := Beta{Alpha: 4, Beta: 16} // a=0.2, w=0.05
	const steps = 200000
	lbeta := func() float64 {
		l1, _ := math.Lgamma(d.Alpha)
		l2, _ := math.Lgamma(d.Beta)
		l3, _ := math.Lgamma(d.Alpha + d.Beta)
		return l1 + l2 - l3
	}()
	pdf := func(x float64) float64 {
		return math.Exp((d.Alpha-1)*math.Log(x) + (d.Beta-1)*math.Log1p(-x) - lbeta)
	}
	for _, x := range []float64{0.05, 0.1, 0.2, 0.3, 0.5} {
		// Trapezoidal integral of the density over (0, x].
		h := x / steps
		sum := 0.0
		for i := 1; i < steps; i++ {
			sum += pdf(float64(i) * h)
		}
		integral := h * (sum + pdf(x)/2)
		if got := d.CDF(x); math.Abs(got-integral) > 1e-6 {
			t.Errorf("CDF(%v) = %v, integral %v", x, got, integral)
		}
	}
}

func TestBinomialCDFSmallCases(t *testing.T) {
	// Binomial(3, 0.5): CDF = 1/8, 4/8, 7/8, 1.
	d := Binomial{N: 3, P: 0.5}
	want := []float64{0.125, 0.5, 0.875, 1}
	for k, w := range want {
		if got := d.CDF(k); math.Abs(got-w) > 1e-12 {
			t.Errorf("CDF(%d) = %v, want %v", k, got, w)
		}
	}
	if d.CDF(-1) != 0 || d.CDF(5) != 1 {
		t.Error("CDF tails wrong")
	}
	if got, want := d.Mean(), 1.5; got != want {
		t.Errorf("mean = %v", got)
	}
	if got, want := d.Variance(), 0.75; got != want {
		t.Errorf("variance = %v", got)
	}
}

func TestBinomialIntervalProbFractionScale(t *testing.T) {
	// Interval mass on the fraction scale: Binomial(10, 0.5) mass with
	// K/N in [0.4, 0.6] is P[K ∈ {4,5,6}] = (210+252+210)/1024.
	d := Binomial{N: 10, P: 0.5}
	want := 672.0 / 1024.0
	if got := d.IntervalProb(0.4, 0.6); math.Abs(got-want) > 1e-12 {
		t.Errorf("IntervalProb = %v, want %v", got, want)
	}
	// Whole support.
	if got := d.IntervalProb(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("full interval = %v", got)
	}
	// Boundary lattice points must be included despite fp noise:
	// 0.1*10 = 1 must count k=1.
	d2 := Binomial{N: 10, P: 0.1}
	if got := d2.IntervalProb(0.1, 0.1); got < 0.3 {
		t.Errorf("point mass at k=1 = %v, want ~0.387", got)
	}
}

func TestBinomialMatchesSampler(t *testing.T) {
	// Cross-check the analytic CDF against draws summed from 40
	// Bernoulli(0.3) trials.
	d := Binomial{N: 40, P: 0.3}
	r := rng.New(5)
	const trials = 20000
	atMost15 := 0
	for i := 0; i < trials; i++ {
		k := 0
		for j := 0; j < 40; j++ {
			if r.Float64() < 0.3 {
				k++
			}
		}
		if k <= 15 {
			atMost15++
		}
	}
	emp := float64(atMost15) / trials
	if got := d.CDF(15); math.Abs(got-emp) > 0.01 {
		t.Errorf("CDF(15) = %v, empirical %v", got, emp)
	}
}

func TestHoeffdingTail(t *testing.T) {
	// 2 exp(−2γ²/n): γ=10, n=100 → 2e^−2.
	if got, want := HoeffdingTail(10, 100), 2*math.Exp(-2); math.Abs(got-want) > 1e-15 {
		t.Errorf("HoeffdingTail = %v, want %v", got, want)
	}
	if HoeffdingTail(0.1, 1000) != 1 {
		t.Error("weak deviation should clamp to 1")
	}
	if HoeffdingTail(1, 0) != 1 || HoeffdingTail(0, 10) != 1 {
		t.Error("degenerate inputs should be trivial")
	}
	// Monotone: larger deviations are rarer.
	if !(HoeffdingTail(30, 100) < HoeffdingTail(20, 100)) {
		t.Error("tail should shrink with gamma")
	}
}

func TestAzumaTail(t *testing.T) {
	if got, want := AzumaTail(2, 8), 2*math.Exp(-1); math.Abs(got-want) > 1e-15 {
		t.Errorf("AzumaTail = %v, want %v", got, want)
	}
	if AzumaTail(1, 0) != 1 || AzumaTail(0, 5) != 1 {
		t.Error("degenerate inputs should be trivial")
	}
	if AzumaTail(5, 1) > AzumaTail(1, 1) {
		t.Error("tail should shrink with gamma")
	}
}

func TestKSStatisticUniform(t *testing.T) {
	// A perfect uniform lattice has D = 1/(2n) against U(0,1) when points
	// sit mid-cell; our i/(n+1) points give D close to 1/(n+1).
	n := 99
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(i+1) / float64(n+1)
	}
	uniform := func(x float64) float64 { return x }
	d := KSStatistic(samples, uniform)
	if d > 0.02 {
		t.Errorf("near-perfect uniform sample: D = %v", d)
	}
	// A grossly shifted sample must have a large D.
	for i := range samples {
		samples[i] = samples[i]*0.2 + 0.8
	}
	if d := KSStatistic(samples, uniform); d < 0.5 {
		t.Errorf("shifted sample: D = %v, want large", d)
	}
	if !math.IsNaN(KSStatistic(nil, uniform)) {
		t.Error("empty sample should be NaN")
	}
}

func TestKSPValueCalibration(t *testing.T) {
	// Uniform samples from the rng package should rarely be rejected, and
	// the p-value should be spread over (0,1): check one fixed seed gives
	// a comfortable p, and a wrong hypothesis is crushed.
	r := rng.New(11)
	n := 400
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = r.Float64()
	}
	uniform := func(x float64) float64 { return x }
	d := KSStatistic(samples, uniform)
	if p := KSPValue(d, n); p < 0.01 {
		t.Errorf("true-hypothesis p-value = %v, want > 0.01", p)
	}
	// Against a Beta(2,6) CDF the uniform sample must be rejected hard.
	wrong := Beta{Alpha: 2, Beta: 6}
	dw := KSStatistic(samples, wrong.CDF)
	if p := KSPValue(dw, n); p > 1e-6 {
		t.Errorf("wrong-hypothesis p-value = %v, want ~0", p)
	}
	// Edge cases.
	if KSPValue(0, 100) != 1 {
		t.Error("D=0 should give p=1")
	}
	if !math.IsNaN(KSPValue(0.1, 0)) {
		t.Error("n=0 should be NaN")
	}
}

func TestTailBoundsExtremes(t *testing.T) {
	// Huge gamma drives the exponent so far down the result underflows
	// through subnormals to zero; the bound must stay a probability.
	for _, gamma := range []float64{1e3, 1e6, 1e9, math.MaxFloat64} {
		h := HoeffdingTail(gamma, 10)
		if !(h >= 0 && h <= 1) {
			t.Errorf("HoeffdingTail(%g, 10) = %v, want in [0,1]", gamma, h)
		}
		a := AzumaTail(gamma, 10)
		if !(a >= 0 && a <= 1) {
			t.Errorf("AzumaTail(%g, 10) = %v, want in [0,1]", gamma, a)
		}
	}
	// A gamma chosen to land the exponent in the subnormal range must
	// produce a positive subnormal, not NaN or a negative value.
	// exp(-745) ≈ 5e-324 is the smallest positive subnormal.
	g := math.Sqrt(745.0 / 2.0 * 10.0)
	h := HoeffdingTail(g, 10)
	if !(h >= 0 && h <= 1) || math.IsNaN(h) {
		t.Errorf("HoeffdingTail near subnormal range = %v, want a probability", h)
	}
	// Degenerate inputs are vacuous bounds, never NaN.
	for _, tc := range []struct{ gamma, n float64 }{
		{0, 10}, {-1, 10}, {1, 0}, {1, -5}, {math.NaN(), 10},
	} {
		if got := HoeffdingTail(tc.gamma, tc.n); got != 1 {
			t.Errorf("HoeffdingTail(%v, %v) = %v, want 1", tc.gamma, tc.n, got)
		}
		if got := AzumaTail(tc.gamma, tc.n); got != 1 {
			t.Errorf("AzumaTail(%v, %v) = %v, want 1", tc.gamma, tc.n, got)
		}
	}
}

func TestKSNaNPropagation(t *testing.T) {
	uniform := func(x float64) float64 { return x }
	// A NaN sample poisons the statistic instead of being silently
	// dropped by NaN-insensitive comparisons.
	samples := []float64{0.1, math.NaN(), 0.7}
	d := KSStatistic(samples, uniform)
	if !math.IsNaN(d) {
		t.Fatalf("KSStatistic with NaN sample = %v, want NaN", d)
	}
	// ... and the NaN flows through to the p-value.
	if p := KSPValue(d, len(samples)); !math.IsNaN(p) {
		t.Errorf("KSPValue(NaN, 3) = %v, want NaN", p)
	}
	// Clean samples keep their finite statistic.
	if d := KSStatistic([]float64{0.1, 0.7}, uniform); math.IsNaN(d) {
		t.Error("KSStatistic without NaN must stay finite")
	}
}
