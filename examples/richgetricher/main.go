// Rich-get-richer demo: watch SL-PoS (the NXT-style single lottery) drive
// a 30%-stake miner to ruin while FSL-PoS — the paper's corrected lottery
// — keeps her income proportional, on identical random seeds.
//
//	go run ./examples/richgetricher
package main

import (
	"context"
	"fmt"
	"log"

	fairness "repro"
	"repro/internal/montecarlo"
	"repro/internal/plot"
)

func main() {
	const (
		a      = 0.3
		w      = 0.01
		blocks = 20000
		trials = 400
	)
	fmt.Printf("Two miners: A holds %.0f%%, B holds %.0f%%. Block reward w = %.2f.\n\n", a*100, (1-a)*100, w)

	chart := &plot.Chart{
		Title:  "Mean reward fraction of miner A (SL-PoS vs FSL-PoS)",
		XLabel: "Number of Blocks (log)", YLabel: "mean lambda_A",
		YMin: 0, YMax: 0.5, LogX: true,
	}
	cps := montecarlo.LogCheckpoints(blocks, 20)
	for _, p := range []fairness.Protocol{fairness.NewSLPoS(w), fairness.NewFSLPoS(w)} {
		res, err := fairness.MonteCarloContext(context.Background(), p, fairness.TwoMiner(a), fairness.MonteCarloConfig{
			Trials: trials, Blocks: blocks, Checkpoints: cps, Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}
		chart.AddSeries(p.Name(), res.CheckpointsAsFloat(), res.MeanSeries())
		final := res.FinalSummary()
		fmt.Printf("%-8s after %d blocks: mean λ_A = %.4f (p5 %.4f, p95 %.4f)\n",
			p.Name(), blocks, final.Mean, final.P5, final.P95)
	}
	chart.AddHLine("fair share a", a)
	fmt.Println()
	fmt.Println(chart.ASCII(72, 18))

	fmt.Println("Why: the SL-PoS win probability is not proportional to stake —")
	for _, z := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		fmt.Printf("  share %.1f wins the next block with prob %.3f\n", z, fairness.SLPoSWinProbTwoMiner(z))
	}
	fmt.Println("Below 1/2 the drift is negative, above 1/2 positive: the game is")
	fmt.Println("absorbed at monopoly (Theorem 4.9). FSL-PoS repairs the lottery with")
	fmt.Println("time = -ln(1-U)/stake, an exponential race that is exactly proportional.")

	fmt.Println("\nMulti-miner win probabilities (Lemma 6.1), shares {0.1, 0.2, 0.3, 0.4}:")
	probs := fairness.SLPoSWinProbMulti([]float64{0.1, 0.2, 0.3, 0.4})
	for i, p := range probs {
		fmt.Printf("  miner %d: share %.1f -> win prob %.3f\n", i+1, []float64{0.1, 0.2, 0.3, 0.4}[i], p)
	}
	fmt.Println("Every miner except the largest wins less than her share.")
}
