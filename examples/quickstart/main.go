// Quickstart: evaluate the fairness of the four incentive protocols the
// paper analyses, using the public API only.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	fairness "repro"
)

func main() {
	// Miner A holds 20% of the initial resource; B holds the rest —
	// the paper's canonical two-miner game (Section 3.1).
	initial := fairness.TwoMiner(0.2)
	eng := fairness.NewEngine()

	fmt.Println("Fairness of blockchain incentives (a = 0.2, w = 0.01, v = 0.1):")
	fmt.Println()
	for _, p := range []fairness.Protocol{
		fairness.NewPoW(0.01),
		fairness.NewMLPoS(0.01),
		fairness.NewSLPoS(0.01),
		fairness.NewCPoS(0.01, 0.1, 32),
	} {
		v, err := eng.Evaluate(context.Background(), p, initial,
			fairness.WithTrials(800), fairness.WithBlocks(4000), fairness.WithSeed(42))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s\n", v)
	}

	fmt.Println()
	fmt.Println("Theory check (Theorems 4.2, 4.3, 4.10 at eps = delta = 0.1):")
	fmt.Printf("  PoW needs n >= %d blocks for certified robust fairness\n",
		fairness.PoWMinBlocks(0.2, fairness.DefaultParams))
	fmt.Printf("  ML-PoS with w=0.01 certified at n=5000? %t (limit fair mass %.3f)\n",
		fairness.MLPoSSufficient(5000, 0.01, 0.2, fairness.DefaultParams),
		fairness.MLPoSLimitFairProb(0.2, 0.01, 0.1))
	fmt.Printf("  C-PoS with w=0.01, v=0.1, P=32 certified at n=5000? %t\n",
		fairness.CPoSSufficient(5000, 0.01, 0.1, 32, 0.2, fairness.DefaultParams))
	fmt.Printf("  overall ranking: %v\n", fairness.Ranking())
}
