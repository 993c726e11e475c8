package fairness

import (
	"context"
	"math"
	"testing"
)

func TestEvaluateDefaults(t *testing.T) {
	v, err := NewEngine().Evaluate(context.Background(), NewPoW(0.01), TwoMiner(0.2),
		WithTrials(400), WithBlocks(4000))
	if err != nil {
		t.Fatal(err)
	}
	if !v.ExpectationalFair {
		t.Errorf("PoW should be expectationally fair: %+v", v)
	}
	if !v.RobustFair {
		t.Errorf("PoW at n=4000 should be robustly fair: %+v", v)
	}
}

func TestEvaluateRanking(t *testing.T) {
	// The four protocols' empirical unfair probabilities must respect the
	// paper's ranking PoW ≤ C-PoS < ML-PoS < SL-PoS at the canonical
	// setting (ties allowed at the fair end).
	eng := NewEngine()
	unfair := map[string]float64{}
	for _, p := range []Protocol{NewPoW(0.01), NewMLPoS(0.01), NewSLPoS(0.01), NewCPoS(0.01, 0.1, 32)} {
		v, err := eng.Evaluate(context.Background(), p, TwoMiner(0.2), WithTrials(500), WithBlocks(3000), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		unfair[p.Name()] = v.UnfairProbability
	}
	if !(unfair["PoW"] <= unfair["ML-PoS"] && unfair["C-PoS"] <= unfair["ML-PoS"] && unfair["ML-PoS"] < unfair["SL-PoS"]) {
		t.Errorf("ranking violated: %v", unfair)
	}
}

func TestEvaluateNormalisesShares(t *testing.T) {
	// Unnormalised input {2, 8} is the a = 0.2 game.
	v, err := NewEngine().Evaluate(context.Background(), NewPoW(0.01), []float64{2, 8},
		WithTrials(300), WithBlocks(2000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.Share-0.2) > 1e-12 {
		t.Errorf("share = %v, want 0.2", v.Share)
	}
}

func TestEvaluateWithholding(t *testing.T) {
	eng, ctx := NewEngine(), context.Background()
	base, err := eng.Evaluate(ctx, NewFSLPoS(0.01), TwoMiner(0.2), WithTrials(600), WithBlocks(4000), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	held, err := eng.Evaluate(ctx, NewFSLPoS(0.01), TwoMiner(0.2), WithTrials(600), WithBlocks(4000), WithSeed(9),
		WithWithholding(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !(held.UnfairProbability < base.UnfairProbability) {
		t.Errorf("withholding %v should improve on %v", held.UnfairProbability, base.UnfairProbability)
	}
}

func TestEvaluateError(t *testing.T) {
	if _, err := NewEngine().Evaluate(context.Background(), NewPoW(0.01), []float64{1}); err == nil {
		t.Error("single miner should error")
	}
}

func TestMonteCarloFacade(t *testing.T) {
	res, err := MonteCarloContext(context.Background(), NewMLPoS(0.01), TwoMiner(0.3),
		MonteCarloConfig{Trials: 50, Blocks: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalSamples()) != 50 {
		t.Errorf("samples = %d", len(res.FinalSamples()))
	}
}

func TestRunFacade(t *testing.T) {
	st, err := NewGame(TwoMiner(0.2))
	if err != nil {
		t.Fatal(err)
	}
	Run(NewPoW(0.01), st, NewRand(1), 100)
	if st.Blocks != 100 {
		t.Errorf("blocks = %d", st.Blocks)
	}
	held, err := NewGameWithWithholding(TwoMiner(0.2), 10)
	if err != nil {
		t.Fatal(err)
	}
	Run(NewMLPoS(0.01), held, NewRand(1), 5)
	if held.PendingStake(0)+held.PendingStake(1) == 0 {
		t.Error("withholding game should hold pending stake after 5 blocks")
	}
}

func TestTheoryFacade(t *testing.T) {
	if n := PoWMinBlocks(0.2, DefaultParams); n < 3000 || n > 4000 {
		t.Errorf("PoWMinBlocks = %d", n)
	}
	if MLPoSSufficient(5000, 0.01, 0.2, DefaultParams) {
		t.Error("w=0.01 should fail Theorem 4.3")
	}
	if !CPoSSufficient(5000, 0.01, 0.1, 32, 0.2, DefaultParams) {
		t.Error("paper C-PoS setting should pass Theorem 4.10")
	}
	if p := SLPoSWinProbTwoMiner(0.2); p != 0.125 {
		t.Errorf("win prob = %v", p)
	}
	probs := SLPoSWinProbMulti([]float64{0.2, 0.8})
	if math.Abs(probs[0]-0.125) > 1e-6 {
		t.Errorf("multi win prob = %v", probs)
	}
	if MLPoSLimitFairProb(0.2, 1e-4, 0.1) < 0.99 {
		t.Error("tiny-reward limit should be nearly surely fair")
	}
	if len(Ranking()) != 4 {
		t.Error("ranking size")
	}
}

func TestSweepFacade(t *testing.T) {
	grid := ScenarioGrid{
		Base:      Scenario{Blocks: 400, Trials: 60, Seed: 2},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.3},
	}
	specs, err := ExpandScenarios(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 4 {
		t.Fatalf("expanded %d scenarios", len(specs))
	}
	eng := NewEngine(WithCache(NewSweepCache(16)))
	rep, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Computed != 4 || rep.Stats.CacheHits != 0 {
		t.Errorf("cold stats: %+v", rep.Stats)
	}
	again, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Computed != 0 || again.Stats.CacheHits != 4 {
		t.Errorf("warm stats: %+v", again.Stats)
	}
	for i := range specs {
		if h, err := ScenarioHash(specs[i]); err != nil || h != rep.Outcomes[i].Hash {
			t.Errorf("hash mismatch at %d: %v %v", i, h, err)
		}
	}
}

func TestSweepMatchesEvaluate(t *testing.T) {
	// A one-scenario sweep must produce exactly the verdict Evaluate
	// produces for the same configuration — the sweep engine is a scaled
	// orchestration of the same computation, not a reimplementation.
	eng, ctx := NewEngine(), context.Background()
	spec := Scenario{Protocol: "mlpos", W: 0.01, Stake: 0.2, Blocks: 500, Trials: 80, Seed: 23}
	rep, err := eng.Sweep(ctx, []Scenario{spec})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Evaluate(ctx, NewMLPoS(0.01), TwoMiner(0.2), WithTrials(80), WithBlocks(500), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Outcomes[0].Verdict; got != want {
		t.Errorf("sweep verdict %+v != Evaluate verdict %+v", got, want)
	}
}

func TestExtensionProtocolsFacade(t *testing.T) {
	// NEO ≈ PoW, Algorand absolutely fair, EOS unfair.
	eng, ctx := NewEngine(), context.Background()
	neo, err := eng.Evaluate(ctx, NewNEO(0.01), TwoMiner(0.2), WithTrials(400), WithBlocks(4000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !neo.RobustFair {
		t.Errorf("NEO should be robustly fair at n=4000: %+v", neo)
	}
	alg, err := eng.Evaluate(ctx, NewAlgorand(0.1), TwoMiner(0.2), WithTrials(50), WithBlocks(500))
	if err != nil {
		t.Fatal(err)
	}
	if alg.UnfairProbability != 0 {
		t.Errorf("Algorand unfair = %v, want exactly 0", alg.UnfairProbability)
	}
	eos, err := eng.Evaluate(ctx, NewEOS(0.01, 0.1), TwoMiner(0.2), WithTrials(50), WithBlocks(2000))
	if err != nil {
		t.Fatal(err)
	}
	if eos.ExpectationalFair {
		t.Errorf("EOS should not be expectationally fair: %+v", eos)
	}
}
