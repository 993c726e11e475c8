// Command fairsim regenerates the paper's tables and figures.
//
// Usage:
//
//	fairsim list
//	fairsim run <experiment|all> [flags]
//
// Flags for run:
//
//	-trials N   override the trial count
//	-blocks N   override the horizon in blocks/epochs
//	-seed S     base RNG seed (default 1)
//	-quick      reduced sizes (what the test suite uses)
//	-ascii      print ASCII charts to stdout
//	-out DIR    write SVG charts into DIR
//
// Examples:
//
//	fairsim run fig2 -ascii
//	fairsim run table1 -quick
//	fairsim run all -quick -out charts/
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	fairness "repro"
	"repro/internal/experiments"
	"repro/internal/table"
)

// stdout is swapped by tests to capture output.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		for _, s := range experiments.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", s.ID, s.Title)
		}
		return nil
	case "run":
		return runCmd(args[1:])
	case "verdicts":
		return verdictsCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// verdictsCmd prints the qualitative fairness table for every protocol in
// the library at the paper's canonical setting.
func verdictsCmd(args []string) error {
	fs := flag.NewFlagSet("verdicts", flag.ContinueOnError)
	trials := fs.Int("trials", 800, "trials per protocol")
	blocks := fs.Int("blocks", 4000, "horizon in blocks/epochs")
	share := fs.Float64("a", 0.2, "miner A's initial share")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	protos := []fairness.Protocol{
		fairness.NewPoW(0.01),
		fairness.NewMLPoS(0.01),
		fairness.NewSLPoS(0.01),
		fairness.NewFSLPoS(0.01),
		fairness.NewCPoS(0.01, 0.1, 32),
		fairness.NewNEO(0.01),
		fairness.NewAlgorand(0.1),
		fairness.NewEOS(0.01, 0.1),
		fairness.NewHybrid(0.01, 0.5),
	}
	tb := table.New("Protocol", "E[lambda]", "Expectational", "Unfair prob", "Robust").
		AlignAll(table.Right).SetAlign(0, table.Left)
	eng := fairness.NewEngine()
	for _, p := range protos {
		v, err := eng.Evaluate(context.Background(), p, fairness.TwoMiner(*share),
			fairness.WithTrials(*trials), fairness.WithBlocks(*blocks), fairness.WithSeed(*seed))
		if err != nil {
			return err
		}
		tb.AddRow(v.Protocol, fmt.Sprintf("%.4f", v.MeanLambda), v.ExpectationalFair,
			fmt.Sprintf("%.3f", v.UnfairProbability), v.RobustFair)
	}
	fmt.Fprintf(stdout, "Fairness verdicts at a=%.2f over %d blocks (%d trials):\n\n%s\n",
		*share, *blocks, *trials, tb.String())
	fmt.Fprintf(stdout, "paper ranking: %v\n", fairness.Ranking())
	return nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	trials := fs.Int("trials", 0, "override trial count")
	blocks := fs.Int("blocks", 0, "override horizon")
	seed := fs.Uint64("seed", 1, "base RNG seed")
	quick := fs.Bool("quick", false, "reduced sizes")
	ascii := fs.Bool("ascii", false, "print ASCII charts")
	outDir := fs.String("out", "", "write SVG charts into this directory")
	workers := fs.Int("workers", 0, "Monte-Carlo worker cap (0 = all cores)")
	if len(args) == 0 {
		return fmt.Errorf("run: missing experiment id (try `fairsim list`)")
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cfg := experiments.Config{
		Trials: *trials, Blocks: *blocks, Seed: *seed, Quick: *quick, Workers: *workers,
	}
	var specs []experiments.Spec
	if id == "all" {
		specs = experiments.All()
	} else {
		s, err := experiments.Get(id)
		if err != nil {
			return err
		}
		specs = []experiments.Spec{s}
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "=== %s — %s ===\n\n", s.ID, s.Title)
		rep, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		fmt.Fprintln(stdout, rep.Text)
		if *ascii {
			for _, c := range rep.Charts {
				fmt.Fprintln(stdout, c.ASCII(72, 18))
			}
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			for i, c := range rep.Charts {
				name := fmt.Sprintf("%s-%d.svg", s.ID, i+1)
				path := filepath.Join(*outDir, name)
				if err := os.WriteFile(path, []byte(c.SVG(720, 420)), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, strings.TrimLeft(`
fairsim — reproduce "Do the Rich Get Richer? Fairness Analysis for
Blockchain Incentives" (SIGMOD 2021)

commands:
  list                 list available experiments
  run <id|all> [flags] run one experiment (or all)

run flags:
  -trials N  -blocks N  -seed S  -quick  -ascii  -out DIR  -workers N
`, "\n"))
}
