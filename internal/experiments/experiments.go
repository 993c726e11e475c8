// Package experiments regenerates every table and figure in the paper's
// evaluation (Section 5 and Section 6.1): Figures 1–6 and Table 1, plus
// the real-system analogue runs on the chainsim substrate and three
// ablations: C-PoS shard count, withholding period and initial
// circulation.
//
// Each experiment is registered under the paper's exhibit ID ("fig2",
// "table1", …), takes a Config that can scale trial counts down for tests
// and benchmarks, and produces a Report containing rendered text, charts
// and a flat metric map that tests assert paper shapes against.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/montecarlo"
	"repro/internal/plot"
	"repro/internal/protocol"
)

// Config scales an experiment run.
type Config struct {
	// Trials overrides the default trial count when > 0.
	Trials int
	// Blocks overrides the default horizon when > 0.
	Blocks int
	// Seed is the base RNG seed (default 1 when zero keeps runs stable).
	Seed uint64
	// Quick selects reduced defaults suitable for tests and benchmarks.
	Quick bool
	// Workers caps Monte-Carlo parallelism (0 = GOMAXPROCS).
	Workers int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// pick returns override when > 0, else quick or full default by mode.
func (c Config) pick(override, quick, full int) int {
	if override > 0 {
		return override
	}
	if c.Quick {
		return quick
	}
	return full
}

// Report is the output of one experiment.
type Report struct {
	ID    string
	Title string
	// Text is the human-readable rendering (tables + notes).
	Text string
	// Charts are the figure panels, renderable as ASCII or SVG.
	Charts []*plot.Chart
	// Metrics exposes headline numbers for assertions and benchmarks.
	Metrics map[string]float64
}

// Spec describes a registered experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Config) (*Report, error)
}

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.ID]; dup {
		panic("experiments: duplicate id " + s.ID)
	}
	registry[s.ID] = s
}

// ErrUnknown reports a request for an unregistered experiment.
var ErrUnknown = errors.New("experiments: unknown experiment")

// Get returns the experiment with the given ID.
func Get(id string) (Spec, error) {
	s, ok := registry[id]
	if !ok {
		return Spec{}, fmt.Errorf("%w: %q (try one of %s)", ErrUnknown, id, strings.Join(IDs(), ", "))
	}
	return s, nil
}

// IDs returns all registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns all registered experiments sorted by ID.
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// --- shared helpers -------------------------------------------------------

// paperParams are the default evaluation constants of Section 5.1.
var paperParams = struct {
	A      float64 // miner A's initial share
	W      float64 // block / proposer reward
	V      float64 // inflation reward (C-PoS)
	Shards int     // C-PoS shards per epoch
}{A: 0.2, W: 0.01, V: 0.1, Shards: 32}

// runMC is the shared Monte-Carlo invocation.
func runMC(p protocol.Protocol, initial []float64, trials, blocks int, cps []int, seed uint64, workers int, opts ...game.Option) (*montecarlo.Result, error) {
	return montecarlo.Run(p, initial, montecarlo.Config{
		Trials:      trials,
		Blocks:      blocks,
		Checkpoints: cps,
		Seed:        seed,
		Workers:     workers,
		GameOptions: opts,
	})
}

// evolutionChart builds a Figure 2/6-style panel: mean line, 5–95 band and
// the fair-area dashes.
func evolutionChart(title string, res *montecarlo.Result, a float64, pr core.Params) *plot.Chart {
	x := res.CheckpointsAsFloat()
	lo, hi := pr.FairArea(a)
	c := &plot.Chart{Title: title, XLabel: "Number of Blocks", YLabel: "lambda_A", YMin: 0, YMax: 0.5}
	c.AddBand("5th-95th pct", x, res.PercentileSeries(5), res.PercentileSeries(95))
	c.AddSeries("mean", x, res.MeanSeries())
	c.AddHLine("fair lo", lo)
	c.AddHLine("fair hi", hi)
	return c
}

// unfairChart builds a Figure 3/5-style panel from several labelled runs.
func unfairChart(title string, a float64, pr core.Params, runs map[string]*montecarlo.Result, order []string) *plot.Chart {
	c := &plot.Chart{Title: title, XLabel: "Number of Blocks", YLabel: "Unfair Probability", YMin: 0, YMax: 1}
	for _, name := range order {
		res := runs[name]
		c.AddSeries(name, res.CheckpointsAsFloat(), res.UnfairProbSeries(a, pr.Eps))
	}
	c.AddHLine("delta", pr.Delta)
	return c
}

func fmt3(v float64) string { return fmt.Sprintf("%.3f", v) }
