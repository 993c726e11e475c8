package core

import (
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/protocol"
	"repro/internal/rng"
)

func TestEquitabilityEndpoints(t *testing.T) {
	// Deterministic proportional income: equitability 0.
	det := []float64{0.2, 0.2, 0.2, 0.2}
	if e := Equitability(det, 0.2); e != 0 {
		t.Errorf("deterministic equitability = %v", e)
	}
	// The all-or-nothing lottery at rate a has variance a(1−a):
	// equitability ~1.
	lottery := make([]float64, 1000)
	r := rng.New(2)
	for i := range lottery {
		if r.Float64() < 0.2 {
			lottery[i] = 1
		}
	}
	if e := Equitability(lottery, 0.2); math.Abs(e-1) > 0.1 {
		t.Errorf("lottery equitability = %v, want ~1", e)
	}
	if !math.IsNaN(Equitability(det, 0)) || !math.IsNaN(Equitability(det[:1], 0.2)) {
		t.Error("degenerate inputs should be NaN")
	}
}

func TestMLPoSLimitEquitabilityFormula(t *testing.T) {
	// Beta(a/w, b/w) variance = a(1−a)/(1/w+1) ⇒ equitability w/(1+w).
	for _, w := range []float64{0.001, 0.01, 0.1} {
		limit := MLPoSLimitDist(0.2, w)
		want := limit.Variance() / (0.2 * 0.8)
		if got := MLPoSLimitEquitability(w); math.Abs(got-want) > 1e-12 {
			t.Errorf("w=%v: formula %v vs beta variance %v", w, got, want)
		}
	}
	if !math.IsNaN(MLPoSLimitEquitability(0)) {
		t.Error("w=0 should be NaN")
	}
}

func TestEquitabilityMatchesLimitEmpirically(t *testing.T) {
	// Deep ML-PoS games: empirical equitability approaches w/(1+w).
	a, w := 0.2, 0.05
	trials := 3000
	n := 4000
	samples := make([]float64, trials)
	p := protocol.NewMLPoS(w)
	for i := 0; i < trials; i++ {
		st := game.MustNew(game.TwoMiner(a))
		protocol.Run(p, st, rng.Stream(81, i), n)
		samples[i] = st.Lambda(0)
	}
	got := Equitability(samples, a)
	want := MLPoSLimitEquitability(w)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("empirical equitability %v vs limit %v", got, want)
	}
}

func TestBetaLimitKSAcceptsMLPoS(t *testing.T) {
	// The simulated final λ of a deep ML-PoS game must be statistically
	// indistinguishable from Beta(a/w, b/w).
	a, w := 0.2, 0.05
	trials := 500
	n := 6000
	samples := make([]float64, trials)
	p := protocol.NewMLPoS(w)
	for i := 0; i < trials; i++ {
		st := game.MustNew(game.TwoMiner(a))
		protocol.Run(p, st, rng.Stream(83, i), n)
		samples[i] = st.Lambda(0)
	}
	d, pv := BetaLimitKS(samples, a, w)
	if pv < 0.01 {
		t.Errorf("KS rejected the Polya-urn limit: D=%v p=%v", d, pv)
	}
}

func TestBetaLimitKSRejectsPoW(t *testing.T) {
	// PoW's concentrated λ must be rejected against the wide ML-PoS limit.
	a, w := 0.2, 0.05
	trials := 500
	samples := make([]float64, trials)
	p := protocol.NewPoW(w)
	for i := 0; i < trials; i++ {
		st := game.MustNew(game.TwoMiner(a))
		protocol.Run(p, st, rng.Stream(85, i), 6000)
		samples[i] = st.Lambda(0)
	}
	_, pv := BetaLimitKS(samples, a, w)
	if pv > 1e-6 {
		t.Errorf("KS failed to reject PoW against the beta limit: p=%v", pv)
	}
}
