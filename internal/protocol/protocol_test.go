package protocol

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/rng"
)

// winFreq plays `trials` single-block games and returns miner 0's win
// frequency.
func winFreq(t *testing.T, p Protocol, initial []float64, trials int, seed uint64) float64 {
	t.Helper()
	wins := 0
	for i := 0; i < trials; i++ {
		st := game.MustNew(initial)
		p.Step(st, rng.Stream(seed, i))
		if st.Rewards[0] > 0 {
			wins++
		}
	}
	return float64(wins) / float64(trials)
}

// meanLambda runs `trials` games of n blocks and returns the mean λ_0.
func meanLambda(t *testing.T, p Protocol, initial []float64, n, trials int, seed uint64) float64 {
	t.Helper()
	sum := 0.0
	for i := 0; i < trials; i++ {
		st := game.MustNew(initial)
		Run(p, st, rng.Stream(seed, i), n)
		l := st.Lambda(0)
		if math.IsNaN(l) {
			t.Fatal("Lambda is NaN after run")
		}
		sum += l
	}
	return sum / float64(trials)
}

func TestPoWWinProbProportional(t *testing.T) {
	// Section 2.1: A wins the next block w.p. H_A/(H_A+H_B).
	got := winFreq(t, NewPoW(0.01), game.TwoMiner(0.2), 50000, 1)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("PoW win freq = %v, want ~0.2", got)
	}
}

func TestPoWStakesConstant(t *testing.T) {
	st := game.MustNew(game.TwoMiner(0.2))
	Run(NewPoW(0.01), st, rng.New(2), 1000)
	if st.Stakes[0] != 0.2 || st.Stakes[1] != 0.8 {
		t.Errorf("PoW mutated hash power: %v", st.Stakes)
	}
	if st.Blocks != 1000 {
		t.Errorf("blocks = %d", st.Blocks)
	}
	if math.Abs(st.TotalRewards()-10) > 1e-9 {
		t.Errorf("total rewards = %v, want 10", st.TotalRewards())
	}
}

func TestPoWExpectationalFairness(t *testing.T) {
	// Theorem 3.2.
	got := meanLambda(t, NewPoW(0.01), game.TwoMiner(0.2), 200, 2000, 3)
	if math.Abs(got-0.2) > 0.005 {
		t.Errorf("PoW E[λ] = %v, want ~0.2", got)
	}
}

func TestMLPoSExpectationalFairness(t *testing.T) {
	// Theorem 3.3: fair in expectation despite the Pólya-urn feedback.
	got := meanLambda(t, NewMLPoS(0.01), game.TwoMiner(0.2), 200, 2000, 4)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("ML-PoS E[λ] = %v, want ~0.2", got)
	}
}

func TestMLPoSStakeConservation(t *testing.T) {
	st := game.MustNew(game.TwoMiner(0.3))
	Run(NewMLPoS(0.05), st, rng.New(5), 400)
	want := 1 + 0.05*400
	if math.Abs(st.TotalStake()-want) > 1e-9 {
		t.Errorf("total stake = %v, want %v", st.TotalStake(), want)
	}
}

func TestMLPoSRichGetLuckier(t *testing.T) {
	// Winning early increases future win probability: conditional on
	// winning block 1, the stake share strictly exceeds a.
	st := game.MustNew(game.TwoMiner(0.2))
	st.Credit(0, 0.5, 0.5)
	st.EndBlock()
	if st.Share(0) <= 0.2 {
		t.Errorf("share after win = %v, should exceed 0.2", st.Share(0))
	}
}

func TestMLPoSKernelTwoMinerWinProb(t *testing.T) {
	// Section 2.2 closed form: Pr[A wins] = (pA − pA·pB/2)/(pA+pB−pA·pB).
	perStake := 0.3 // deliberately large so the tie term matters
	a := 0.2
	pA, pB := perStake*a, perStake*(1-a)
	want := (pA - pA*pB/2) / (pA + pB - pA*pB)
	got := winFreq(t, NewMLPoSKernel(0.01, perStake), game.TwoMiner(a), 80000, 6)
	if math.Abs(got-want) > 0.006 {
		t.Errorf("kernel win freq = %v, want %v", got, want)
	}
}

func TestMLPoSKernelSmallProbMatchesProportional(t *testing.T) {
	// With tiny per-timestamp probabilities the tie term vanishes and the
	// kernel model converges to the proportional ML-PoS limit.
	got := winFreq(t, NewMLPoSKernel(0.01, 1.0/1200), game.TwoMiner(0.2), 50000, 7)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("kernel (small p) win freq = %v, want ~0.2", got)
	}
}

func TestSLPoSTwoMinerWinProb(t *testing.T) {
	// Equation (1): Pr[A wins] ≈ a/(2b) for a ≤ b. a=0.2 ⇒ 0.125.
	got := winFreq(t, NewSLPoS(0.01), game.TwoMiner(0.2), 50000, 8)
	want := 0.2 / (2 * 0.8)
	if math.Abs(got-want) > 0.008 {
		t.Errorf("SL-PoS win freq = %v, want %v", got, want)
	}
}

func TestSLPoSEqualStakesFair(t *testing.T) {
	// a = b = 0.5 is the only fair point of the two-miner game.
	got := winFreq(t, NewSLPoS(0.01), game.TwoMiner(0.5), 50000, 9)
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("SL-PoS symmetric win freq = %v, want ~0.5", got)
	}
}

func TestSLPoSNotExpectationallyFair(t *testing.T) {
	// Theorem 3.4: E[λ_A] < a for a < 1/2.
	got := meanLambda(t, NewSLPoS(0.01), game.TwoMiner(0.2), 500, 1000, 10)
	if got >= 0.17 {
		t.Errorf("SL-PoS E[λ] = %v, should be well below 0.2", got)
	}
}

func TestSLPoSMonopolises(t *testing.T) {
	// Theorem 4.9: λ converges to {0, 1}; absorption follows the
	// stochastic-approximation time scale (share ~ n^{-1/2} once below
	// the unstable point 1/2), so by n = 20000 essentially every game is
	// near monopoly.
	p := NewSLPoS(0.01)
	extremes := 0
	trials := 200
	for i := 0; i < trials; i++ {
		st := game.MustNew(game.TwoMiner(0.2))
		Run(p, st, rng.Stream(11, i), 20000)
		share := st.Share(0)
		if share < 0.05 || share > 0.95 {
			extremes++
		}
	}
	if frac := float64(extremes) / float64(trials); frac < 0.95 {
		t.Errorf("only %v of SL-PoS games reached near-monopoly", frac)
	}
}

func TestFSLPoSWinProbProportional(t *testing.T) {
	// Section 6.2 treatment: exponential race restores proportionality.
	got := winFreq(t, NewFSLPoS(0.01), game.TwoMiner(0.2), 50000, 12)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("FSL-PoS win freq = %v, want ~0.2", got)
	}
}

func TestFSLPoSExpectationalFairness(t *testing.T) {
	got := meanLambda(t, NewFSLPoS(0.01), game.TwoMiner(0.2), 200, 2000, 13)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("FSL-PoS E[λ] = %v, want ~0.2", got)
	}
}

func TestCPoSExpectationalFairness(t *testing.T) {
	// Theorem 3.5.
	got := meanLambda(t, NewCPoS(0.01, 0.1, 32), game.TwoMiner(0.2), 100, 1000, 14)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("C-PoS E[λ] = %v, want ~0.2", got)
	}
}

func TestCPoSStakeConservation(t *testing.T) {
	st := game.MustNew(game.TwoMiner(0.2))
	Run(NewCPoS(0.01, 0.1, 32), st, rng.New(15), 100)
	want := 1 + (0.01+0.1)*100
	if math.Abs(st.TotalStake()-want) > 1e-9 {
		t.Errorf("total stake = %v, want %v", st.TotalStake(), want)
	}
}

func TestCPoSNarrowerThanMLPoS(t *testing.T) {
	// Theorem 4.10: inflation + sharding shrink the λ spread. Compare the
	// cross-trial variance of λ after equal reward issuance.
	varOf := func(p Protocol, n int, seed uint64) float64 {
		trials := 800
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			st := game.MustNew(game.TwoMiner(0.2))
			Run(p, st, rng.Stream(seed, i), n)
			l := st.Lambda(0)
			sum += l
			sumSq += l * l
		}
		mean := sum / float64(trials)
		return sumSq/float64(trials) - mean*mean
	}
	vML := varOf(NewMLPoS(0.01), 1000, 16)
	vC := varOf(NewCPoS(0.01, 0.1, 32), 1000, 17)
	if vC >= vML/4 {
		t.Errorf("C-PoS variance %v not ≪ ML-PoS variance %v", vC, vML)
	}
}

func TestCPoSDegeneratesToMLPoS(t *testing.T) {
	// v=0, P=1 is exactly ML-PoS (Theorem 4.10 remark): the winner draw
	// and reward are identical, so with the same RNG stream the whole
	// trajectory must match.
	n := 500
	stML := game.MustNew(game.TwoMiner(0.2))
	stC := game.MustNew(game.TwoMiner(0.2))
	Run(NewMLPoS(0.01), stML, rng.New(18), n)
	Run(NewCPoS(0.01, 0, 1), stC, rng.New(18), n)
	if math.Abs(stML.Lambda(0)-stC.Lambda(0)) > 1e-12 {
		t.Errorf("C-PoS(v=0,P=1) λ=%v differs from ML-PoS λ=%v", stC.Lambda(0), stML.Lambda(0))
	}
	if math.Abs(stML.Stakes[0]-stC.Stakes[0]) > 1e-12 {
		t.Errorf("stakes diverged: %v vs %v", stC.Stakes[0], stML.Stakes[0])
	}
}

func TestNEOBehavesLikePoW(t *testing.T) {
	st := game.MustNew(game.TwoMiner(0.2))
	Run(NewNEO(0.01), st, rng.New(19), 1000)
	if st.Stakes[0] != 0.2 {
		t.Errorf("NEO mutated base asset: %v", st.Stakes)
	}
	got := meanLambda(t, NewNEO(0.01), game.TwoMiner(0.2), 200, 1000, 20)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("NEO E[λ] = %v", got)
	}
}

func TestAlgorandAbsoluteFairness(t *testing.T) {
	// λ equals the initial share in *every* outcome: (0,0)-fairness.
	st := game.MustNew(game.TwoMiner(0.2))
	Run(NewAlgorand(0.1), st, rng.New(21), 500)
	if math.Abs(st.Lambda(0)-0.2) > 1e-12 {
		t.Errorf("Algorand λ = %v, want exactly 0.2", st.Lambda(0))
	}
	if math.Abs(st.Share(0)-0.2) > 1e-12 {
		t.Errorf("Algorand share drifted: %v", st.Share(0))
	}
}

func TestEOSUnfairTowardConstant(t *testing.T) {
	// EOS pays every delegate the same proposer reward regardless of
	// stake, so the small delegate is over-rewarded: λ_A > a, and the
	// constant reward accreting to stake drags every share toward 1/m.
	// The dynamics contain no randomness at all, so two seeds must agree.
	st := game.MustNew(game.TwoMiner(0.2))
	Run(NewEOS(0.01, 0.1), st, rng.New(22), 2000)
	st2 := game.MustNew(game.TwoMiner(0.2))
	Run(NewEOS(0.01, 0.1), st2, rng.New(99), 2000)
	if st.Lambda(0) != st2.Lambda(0) {
		t.Error("EOS trajectory should be deterministic")
	}
	if st.Lambda(0) <= 0.25 {
		t.Errorf("EOS λ = %v, small delegate should be clearly over-rewarded (> 0.25)", st.Lambda(0))
	}
	if share := st.Share(0); !(share > 0.25 && share < 0.5) {
		t.Errorf("EOS share = %v, should be drifting from 0.2 toward 1/m = 0.5", share)
	}
}

func TestWaveMatchesFSLPoS(t *testing.T) {
	stW := game.MustNew(game.TwoMiner(0.2))
	stF := game.MustNew(game.TwoMiner(0.2))
	Run(NewWave(0.01), stW, rng.New(23), 300)
	Run(NewFSLPoS(0.01), stF, rng.New(23), 300)
	if stW.Lambda(0) != stF.Lambda(0) {
		t.Error("Wave should share the FSL-PoS lottery")
	}
}

func TestWithholdingPreservesExpectation(t *testing.T) {
	// Withholding changes the stake dynamics, not the expectation.
	sum := 0.0
	trials := 1500
	p := NewFSLPoS(0.01)
	for i := 0; i < trials; i++ {
		st := game.MustNew(game.TwoMiner(0.2), game.WithWithholding(100))
		Run(p, st, rng.Stream(24, i), 300)
		sum += st.Lambda(0)
	}
	got := sum / float64(trials)
	if math.Abs(got-0.2) > 0.01 {
		t.Errorf("withheld FSL-PoS E[λ] = %v, want ~0.2", got)
	}
}

func TestWithholdingReducesVariance(t *testing.T) {
	// Section 6.3: withholding freezes stake between release points, so
	// intra-period outcomes are i.i.d. and concentrate.
	varOf := func(k int, seed uint64) float64 {
		trials := 800
		var sum, sumSq float64
		for i := 0; i < trials; i++ {
			var opts []game.Option
			if k > 0 {
				opts = append(opts, game.WithWithholding(k))
			}
			st := game.MustNew(game.TwoMiner(0.2), opts...)
			Run(NewFSLPoS(0.05), st, rng.Stream(seed, i), 2000)
			l := st.Lambda(0)
			sum += l
			sumSq += l * l
		}
		mean := sum / float64(trials)
		return sumSq/float64(trials) - mean*mean
	}
	vNone := varOf(0, 25)
	vHold := varOf(1000, 26)
	if vHold >= vNone {
		t.Errorf("withholding variance %v not below baseline %v", vHold, vNone)
	}
}

func TestConstructorsPanicOnBadParams(t *testing.T) {
	cases := []func(){
		func() { NewPoW(0) },
		func() { NewPoW(-1) },
		func() { NewMLPoS(0) },
		func() { NewMLPoSKernel(0.01, 0) },
		func() { NewMLPoSKernel(0.01, 1.5) },
		func() { NewSLPoS(0) },
		func() { NewFSLPoS(0) },
		func() { NewCPoS(0, 0.1, 32) },
		func() { NewCPoS(0.01, -0.1, 32) },
		func() { NewCPoS(0.01, 0.1, 0) },
		func() { NewNEO(0) },
		func() { NewAlgorand(0) },
		func() { NewEOS(0, 0.1) },
		func() { NewEOS(0.01, -1) },
		func() { NewWave(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAllProtocolsKeepInvariants(t *testing.T) {
	protos := []Protocol{
		NewPoW(0.01), NewMLPoS(0.01), NewMLPoSKernel(0.01, 0.001),
		NewSLPoS(0.01), NewFSLPoS(0.01), NewCPoS(0.01, 0.1, 8),
		NewNEO(0.01), NewAlgorand(0.1), NewEOS(0.01, 0.1), NewWave(0.01),
	}
	for _, p := range protos {
		st := game.MustNew(game.LeaderAndPack(0.2, 4))
		r := rng.New(27)
		for b := 0; b < 200; b++ {
			p.Step(st, r)
			if err := st.CheckInvariants(); err != nil {
				t.Fatalf("%s violated invariants at block %d: %v", p.Name(), b, err)
			}
		}
		if st.Blocks != 200 {
			t.Errorf("%s advanced %d blocks, want 200", p.Name(), st.Blocks)
		}
	}
}

func TestStepsDoNotAllocate(t *testing.T) {
	protos := []Protocol{
		NewPoW(0.01), NewMLPoS(0.01), NewMLPoSKernel(0.01, 0.001),
		NewSLPoS(0.01), NewFSLPoS(0.01), NewCPoS(0.01, 0.1, 32),
		NewNEO(0.01), NewAlgorand(0.1), NewEOS(0.01, 0.1), NewWave(0.01),
		NewHybrid(0.01, 0.5),
	}
	for _, m := range []int{2, 10} {
		for _, p := range protos {
			st := game.MustNew(game.LeaderAndPack(0.2, m))
			r := rng.New(28)
			if n := testing.AllocsPerRun(200, func() { p.Step(st, r) }); n != 0 {
				t.Errorf("%s at m=%d: %v allocations per step, want 0", p.Name(), m, n)
			}
		}
	}
}

func TestProtocolNames(t *testing.T) {
	want := map[string]Protocol{
		"PoW":           NewPoW(1),
		"ML-PoS":        NewMLPoS(1),
		"ML-PoS-kernel": NewMLPoSKernel(1, 0.001),
		"SL-PoS":        NewSLPoS(1),
		"FSL-PoS":       NewFSLPoS(1),
		"C-PoS":         NewCPoS(1, 1, 1),
		"NEO":           NewNEO(1),
		"Algorand":      NewAlgorand(1),
		"EOS":           NewEOS(1, 0),
		"Wave":          NewWave(1),
	}
	for name, p := range want {
		if p.Name() != name {
			t.Errorf("Name() = %q, want %q", p.Name(), name)
		}
	}
}

// Property: λ stays in [0,1] and block counter matches steps for every
// protocol under random parameters.
func TestQuickLambdaInRange(t *testing.T) {
	f := func(seed uint64, aRaw uint8, nRaw uint8) bool {
		a := 0.05 + float64(aRaw%90)/100 // in [0.05, 0.95)
		n := int(nRaw%100) + 1
		protos := []Protocol{
			NewPoW(0.01), NewMLPoS(0.01), NewSLPoS(0.01),
			NewFSLPoS(0.01), NewCPoS(0.01, 0.1, 4),
		}
		for _, p := range protos {
			st := game.MustNew(game.TwoMiner(a))
			Run(p, st, rng.New(seed), n)
			l := st.Lambda(0)
			if math.IsNaN(l) || l < 0 || l > 1 {
				return false
			}
			if st.Blocks != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: stake-conveying protocols issue exactly n·(w+v) total stake.
func TestQuickStakeConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		type tc struct {
			p       Protocol
			perStep float64
		}
		cases := []tc{
			{NewMLPoS(0.02), 0.02},
			{NewSLPoS(0.02), 0.02},
			{NewFSLPoS(0.02), 0.02},
			{NewCPoS(0.02, 0.05, 4), 0.07},
			{NewEOS(0.02, 0.05), 0.07},
			{NewAlgorand(0.05), 0.05},
		}
		for _, c := range cases {
			st := game.MustNew(game.TwoMiner(0.3))
			Run(c.p, st, rng.New(seed), n)
			want := 1 + c.perStep*float64(n)
			if math.Abs(st.TotalStake()-want) > 1e-9 {
				return false
			}
			if math.Abs(st.TotalRewards()-c.perStep*float64(n)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
