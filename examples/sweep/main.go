// Sweep: ask a what-if question the paper's fixed exhibits cannot —
// how does the reward size w interact with the initial stake a across
// protocols? Expand a declarative grid, fan it across all cores with a
// result cache, and print the fairness verdicts.
//
//	go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"log"

	fairness "repro"
)

func main() {
	grid := fairness.ScenarioGrid{
		Base:      fairness.Scenario{Blocks: 3000, Trials: 400, Seed: 7},
		Protocols: []string{"pow", "mlpos", "cpos"},
		W:         []float64{0.001, 0.01, 0.1},
		Stake:     []float64{0.1, 0.3},
	}
	specs, err := fairness.ExpandScenarios(grid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Sweeping %d scenarios (3 protocols × 3 rewards × 2 stakes)...\n\n", len(specs))

	eng := fairness.NewEngine(fairness.WithCache(fairness.NewSweepCache(0)))
	rep, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Table())
	fmt.Println(rep.Summary())

	// The cache makes overlapping follow-up questions nearly free: the
	// mlpos column re-asked alone recomputes nothing.
	followUp := grid
	followUp.Protocols = []string{"mlpos"}
	subset, err := fairness.ExpandScenarios(followUp)
	if err != nil {
		log.Fatal(err)
	}
	rep2, err := eng.Sweep(context.Background(), subset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfollow-up: %s\n", rep2.Summary())

	fmt.Println("\nReading: small w keeps ML-PoS robustly fair (Theorem 4.3); at w=0.1")
	fmt.Println("compounding dominates for every stake. C-PoS holds out far longer and")
	fmt.Println("only loses robust fairness at the largest reward with the smallest stake.")
}
