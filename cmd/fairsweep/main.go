// Command fairsweep expands and runs declarative fairness-scenario
// sweeps: the what-if engine over the paper's protocol space.
//
// Usage:
//
//	fairsweep expand [flags]   expand the grid, print the scenario list as JSON
//	fairsweep run [flags]      run the sweep, print the fairness report
//	fairsweep arena [flags]    best-response equilibrium sweep over the grid
//	fairsweep bench [flags]    run cold + warm cache passes, print throughput
//	fairsweep conform [flags]  run the cross-backend conformance corpus
//
// Grid flags (shared by expand/run/arena/bench):
//
//	-spec FILE      JSON grid {"base":{...},"protocols":[...],"stake":[...]}
//	                or scenario array [{...}, ...]; overrides the axis flags
//	-protocols CSV  protocol axis (default pow,mlpos,slpos,cpos)
//	-w CSV          block-reward axis (default 0.01)
//	-stake CSV      tracked-miner share axis (default 0.1,0.2,0.3,0.4)
//	-miners CSV     miner-count axis (default 2)
//	-withhold CSV   reward-withholding period axis (default none)
//	-strategy LIST  adversary strategy axis: semicolon-separated
//	                name:key=val,... entries over the registered strategies
//	                (honest, selfish, selfish-delay, withhold); one grid
//	                expansion per entry
//	-selfish N      deviating miner index for -strategy; alone it runs
//	                "-strategy selfish" on miner N
//	-gamma CSV      network-advantage axis over the -strategy/-selfish
//	                adversary; each value names its own cell (.../g=0.5)
//	-fork-rate CSV  network fork-rate axis (pow only; 0 = honest cell)
//	-blocks N       horizon in blocks/epochs (default 5000)
//	-trials N       Monte-Carlo trials per scenario (default 1000)
//	-checkpoints N  record λ at N linear checkpoints (default: final only)
//	-seed S         sweep base seed; per-scenario seeds derive from it
//	                (grids only — explicit scenario arrays keep their own
//	                seeds, exactly as Engine.Sweep would)
//
// Run flags:
//
//	-workers N     scenario-level parallelism (0 = all cores)
//	-cache N       LRU result-cache capacity (0 = no cache)
//	-cache-dir DIR disk result cache (survives restarts; overrides -cache)
//	-cache-max-bytes N  size-cap the disk cache: least-recently-used
//	               entries are evicted once it exceeds N bytes
//	-backend NAME  evaluator backend: montecarlo (default), theory,
//	               chainsim, arena
//	-adaptive      early stopping: -trials becomes a budget, runs halt once
//	               the verdict is resolved (montecarlo only); tuned with
//	               -stop-confidence, -stop-min-trials, -stop-batch
//	-repeat N      run the sweep N times against the shared cache
//	-trace FILE    write NDJSON trace events — sweep_start, one sweep_eval
//	               per unique scenario, sweep_done — to FILE ("-" = stderr)
//	-json          print the report as JSON instead of a table
//	-ndjson        stream outcomes as NDJSON lines as they complete
//	-out FILE      also write the JSON report to FILE
//
// Arena flags (plus the grid and cache/worker flags; the adversary flags
// -strategy/-selfish/-gamma/-fork-rate/-withhold do not apply — the
// arena assigns strategies itself):
//
//	-candidates LIST  strategy menu, semicolon-separated name:key=val,...
//	                  entries (default: the protocol's registered set)
//	-max-rounds N     best-response round-robin bound (0 = default)
//	-json             print the stable JSON report (golden-diff friendly)
//	-out FILE         also write the JSON report to FILE
//
// Sweeps run through the public fairness.Engine and honour Ctrl-C: an
// interrupted sweep prints the partial report it finished and exits
// non-zero.
//
// Examples:
//
//	fairsweep expand -protocols mlpos -w 0.001,0.01,0.1 -stake 0.2
//	fairsweep run -trials 300 -blocks 1500 -cache 64 -repeat 2
//	fairsweep run -cache-dir ~/.cache/fairsweep -trials 300 -blocks 1500
//	fairsweep run -backend theory -protocols pow,mlpos,cpos
//	fairsweep run -protocols pow -stake 0.4 -strategy 'selfish;selfish-delay:d=3'
//	fairsweep run -protocols pow -stake 0.35,0.4,0.45 -selfish 0 -gamma 0,0.5
//	fairsweep run -protocols pow -stake 0.4 -fork-rate 0,0.4,0.8
//	fairsweep run -adaptive -trials 2000 -blocks 1500 -protocols pow
//	fairsweep arena -protocols pow -stake 0.2,0.4 -trials 50 -blocks 1500
//	fairsweep bench -protocols pow,mlpos -trials 100 -blocks 500
//	fairsweep conform
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	fairness "repro"
	"repro/internal/conformance"
	"repro/internal/montecarlo"
	"repro/internal/scenario"
	"repro/internal/table"
)

// stdout is swapped by tests to capture output; stderr carries summary
// lines in -ndjson mode so stdout stays machine-parseable.
var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairsweep:", err)
		os.Exit(1)
	}
}

// signalContext returns a context cancelled by SIGINT/SIGTERM, so an
// interrupted sweep stops within one scenario and reports what finished.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// traceWriter resolves the -trace flag: "-" streams events to stderr,
// anything else creates (or truncates) the named NDJSON file.
func traceWriter(path string) (io.Writer, func(), error) {
	if path == "-" {
		return stderr, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// cacheFor resolves the -cache/-cache-dir/-cache-max-bytes flags into a
// CacheStore (nil means uncached).
func cacheFor(capacity int, dir string, maxBytes int64) (fairness.CacheStore, error) {
	if dir != "" {
		disk, err := fairness.NewDiskCache(dir)
		if err != nil {
			return nil, err
		}
		if maxBytes > 0 {
			disk.SetMaxBytes(maxBytes)
		}
		return disk, nil
	}
	if capacity > 0 {
		return fairness.NewSweepCache(capacity), nil
	}
	return nil, nil
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "expand":
		return expandCmd(args[1:])
	case "run":
		return runCmd(args[1:])
	case "arena":
		return arenaCmd(args[1:])
	case "bench":
		return benchCmd(args[1:])
	case "conform":
		return conformCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// gridFlags registers the shared scenario-grid flags on a flag set.
type gridFlags struct {
	spec        *string
	protocols   *string
	w           *string
	stake       *string
	miners      *string
	withhold    *string
	strategy    *string
	selfish     *int
	gamma       *string
	forkRate    *string
	blocks      *int
	trials      *int
	checkpoints *int
	seed        *uint64
}

func addGridFlags(fs *flag.FlagSet) *gridFlags {
	return &gridFlags{
		spec:        fs.String("spec", "", "JSON grid or scenario-array file"),
		protocols:   fs.String("protocols", "pow,mlpos,slpos,cpos", "protocol axis (CSV)"),
		w:           fs.String("w", "0.01", "block-reward axis (CSV)"),
		stake:       fs.String("stake", "0.1,0.2,0.3,0.4", "tracked-miner share axis (CSV)"),
		miners:      fs.String("miners", "2", "miner-count axis (CSV)"),
		withhold:    fs.String("withhold", "", "withholding-period axis (CSV)"),
		strategy:    fs.String("strategy", "", "adversary strategy axis: semicolon-separated name:key=val,... entries (e.g. 'honest;selfish:g=0.5;withhold:e=100')"),
		selfish:     fs.Int("selfish", -1, "deviating miner index (with -strategy); alone: -strategy selfish on miner N (-1 = off)"),
		gamma:       fs.String("gamma", "", "network-advantage axis over the -strategy/-selfish adversary (CSV)"),
		forkRate:    fs.String("fork-rate", "", "network fork-rate axis (CSV, pow only; 0 = honest cell)"),
		blocks:      fs.Int("blocks", 5000, "horizon in blocks/epochs"),
		trials:      fs.Int("trials", 1000, "Monte-Carlo trials per scenario"),
		checkpoints: fs.Int("checkpoints", 0, "record lambda at N linear checkpoints (0 = final only)"),
		seed:        fs.Uint64("seed", 1, "sweep base seed"),
	}
}

// adversaries resolves the -strategy/-selfish/-gamma flags into the
// adversary blocks to sweep: one grid expansion per entry. -selfish N
// is the deviating-miner index and, alone, selects "-strategy selfish"
// on that miner; -gamma is the grid's network-advantage axis over
// whichever adversary is selected, and the only flag spelling whose γ
// values name their cells.
func (g *gridFlags) adversaries() ([]*scenario.Adversary, error) {
	miner := 0
	if *g.selfish >= 0 {
		miner = *g.selfish
	}
	if *g.strategy != "" {
		cands, err := fairness.ParseStrategies(*g.strategy)
		if err != nil {
			return nil, fmt.Errorf("-strategy: %w", err)
		}
		advs := make([]*scenario.Adversary, len(cands))
		for i, c := range cands {
			advs[i] = &scenario.Adversary{
				Strategy: c.Strategy, Miner: miner,
				Gamma: c.Gamma, Delay: c.Delay, Every: c.Every,
			}
		}
		return advs, nil
	}
	if *g.selfish >= 0 {
		return []*scenario.Adversary{{Strategy: scenario.StrategySelfish, Miner: miner}}, nil
	}
	if *g.gamma != "" {
		return nil, fmt.Errorf("-gamma needs -strategy or -selfish")
	}
	return []*scenario.Adversary{nil}, nil
}

// specs resolves the flag set into a concrete scenario list: the
// concatenation, over the -strategy entries, of one grid expansion per
// adversary block (a plain honest grid when no adversary is asked for).
func (g *gridFlags) specs() ([]scenario.Spec, error) {
	if *g.spec != "" {
		data, err := os.ReadFile(*g.spec)
		if err != nil {
			return nil, err
		}
		// Explicit scenario arrays are taken verbatim — seeds and all —
		// so the CLI computes exactly what Engine.Sweep would for the
		// same document (-seed applies to grids only).
		return scenario.DecodeSpecsOrGrid(data, *g.seed)
	}

	protocols, err := splitStrings(*g.protocols)
	if err != nil {
		return nil, err
	}
	ws, err := splitFloats(*g.w)
	if err != nil {
		return nil, fmt.Errorf("-w: %w", err)
	}
	stakes, err := splitFloats(*g.stake)
	if err != nil {
		return nil, fmt.Errorf("-stake: %w", err)
	}
	miners, err := splitInts(*g.miners)
	if err != nil {
		return nil, fmt.Errorf("-miners: %w", err)
	}
	withhold, err := splitInts(*g.withhold)
	if err != nil {
		return nil, fmt.Errorf("-withhold: %w", err)
	}
	gammas, err := splitFloats(*g.gamma)
	if err != nil {
		return nil, fmt.Errorf("-gamma: %w", err)
	}
	forkRates, err := splitFloats(*g.forkRate)
	if err != nil {
		return nil, fmt.Errorf("-fork-rate: %w", err)
	}
	advs, err := g.adversaries()
	if err != nil {
		return nil, err
	}
	base := scenario.Spec{Blocks: *g.blocks, Trials: *g.trials}
	if *g.checkpoints > 0 {
		base.Checkpoints = montecarlo.LinearCheckpoints(*g.blocks, *g.checkpoints)
	}
	var specs []scenario.Spec
	for _, adv := range advs {
		b := base
		b.Adversary = adv
		grid := scenario.Grid{
			Base:      b,
			Protocols: protocols,
			W:         ws,
			Stake:     stakes,
			Miners:    miners,
			Withhold:  withhold,
			Gamma:     gammas,
			ForkRate:  forkRates,
			Seed:      *g.seed,
		}
		expanded, err := grid.Expand()
		if err != nil {
			return nil, err
		}
		specs = append(specs, expanded...)
	}
	return specs, nil
}

func expandCmd(args []string) error {
	fs := flag.NewFlagSet("expand", flag.ContinueOnError)
	gf := addGridFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := gf.specs()
	if err != nil {
		return err
	}
	type hashed struct {
		scenario.Spec
		Hash string `json:"hash"`
	}
	out := make([]hashed, len(specs))
	for i, s := range specs {
		h, err := s.Hash()
		if err != nil {
			return err
		}
		out[i] = hashed{Spec: s.Normalized(), Hash: h}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	fmt.Fprintf(stdout, "expanded %d scenarios\n", len(specs))
	return nil
}

// adaptiveFlags are the early-stopping knobs shared by run and bench:
// -adaptive turns each scenario's trial count into a budget with early
// stopping on the montecarlo backend; the stop-* flags tune the rule.
type adaptiveFlags struct {
	adaptive   *bool
	confidence *float64
	minTrials  *int
	batch      *int
}

func addAdaptiveFlags(fs *flag.FlagSet) *adaptiveFlags {
	return &adaptiveFlags{
		adaptive:   fs.Bool("adaptive", false, "adaptive early stopping: treat -trials as a budget, stop once the verdict is resolved (montecarlo backend only)"),
		confidence: fs.Float64("stop-confidence", 0, "adaptive stopping error budget across all looks (0 = default)"),
		minTrials:  fs.Int("stop-min-trials", 0, "smallest trial prefix the stopping rule evaluates (0 = default)"),
		batch:      fs.Int("stop-batch", 0, "trial batch size / stopping granularity (0 = default)"),
	}
}

// apply resolves the flags against the backend selection: a nil ev is
// the default montecarlo backend, which -adaptive upgrades to the
// early-stopping variant; any other backend rejects the flag.
func (af *adaptiveFlags) apply(ev fairness.Evaluator, backend string) (fairness.Evaluator, error) {
	if !*af.adaptive {
		return ev, nil
	}
	if ev != nil {
		return nil, fmt.Errorf("-adaptive requires the montecarlo backend, got %q", backend)
	}
	return fairness.MonteCarloAdaptiveBackend(fairness.AdaptiveTrials{
		Confidence: *af.confidence,
		MinTrials:  *af.minTrials,
		Batch:      *af.batch,
	}), nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	gf := addGridFlags(fs)
	workers := fs.Int("workers", 0, "scenario-level parallelism (0 = all cores)")
	cacheCap := fs.Int("cache", 0, "LRU result-cache capacity (0 = no cache)")
	cacheDir := fs.String("cache-dir", "", "disk result-cache directory (overrides -cache)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "size cap for -cache-dir: evict LRU entries beyond N bytes (0 = unbounded)")
	backend := fs.String("backend", "montecarlo", "evaluator backend: montecarlo, theory, chainsim, arena")
	af := addAdaptiveFlags(fs)
	repeat := fs.Int("repeat", 1, "run the sweep N times against the shared cache")
	traceFile := fs.String("trace", "", "write NDJSON trace events (sweep_start, sweep_eval, sweep_done) to FILE (\"-\" = stderr)")
	asJSON := fs.Bool("json", false, "print the report as JSON")
	asNDJSON := fs.Bool("ndjson", false, "stream outcomes as NDJSON lines as they complete")
	outFile := fs.String("out", "", "also write the JSON report to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := gf.specs()
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("empty scenario list")
	}
	if *repeat < 1 {
		*repeat = 1
	}
	ev, err := fairness.BackendByName(*backend)
	if err != nil {
		return err
	}
	if ev, err = af.apply(ev, *backend); err != nil {
		return err
	}
	cache, err := cacheFor(*cacheCap, *cacheDir, *cacheMaxBytes)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()

	engOpts := []fairness.EngineOption{fairness.WithWorkers(*workers)}
	if *traceFile != "" {
		w, closeTrace, err := traceWriter(*traceFile)
		if err != nil {
			return err
		}
		defer closeTrace()
		engOpts = append(engOpts, fairness.WithTelemetry(nil, fairness.NewTracer(w)))
	}
	if cache != nil {
		engOpts = append(engOpts, fairness.WithCache(cache))
	}
	if ev != nil {
		engOpts = append(engOpts, fairness.WithBackend(ev))
	}
	enc := json.NewEncoder(stdout)
	if *asNDJSON {
		engOpts = append(engOpts, fairness.WithObserver(func(o fairness.SweepOutcome) {
			enc.Encode(o)
		}))
	}
	eng := fairness.NewEngine(engOpts...)

	var rep *fairness.SweepReport
	summaries := make([]string, 0, *repeat)
	for pass := 1; pass <= *repeat; pass++ {
		rep, err = eng.Sweep(ctx, specs)
		if err != nil {
			if rep != nil && rep.Partial {
				fmt.Fprintf(stderr, "sweep interrupted: %s\n", rep.Summary())
			}
			return err
		}
		summaries = append(summaries, fmt.Sprintf("pass %d: %s", pass, rep.Summary()))
	}
	switch {
	case *asNDJSON:
		// Outcome lines already streamed; keep stdout pure NDJSON.
		for _, s := range summaries {
			fmt.Fprintln(stderr, s)
		}
	case *asJSON:
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
		for _, s := range summaries {
			fmt.Fprintln(stdout, s)
		}
	default:
		fmt.Fprintln(stdout, rep.Table())
		for _, s := range summaries {
			fmt.Fprintln(stdout, s)
		}
	}
	if *outFile != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *outFile)
	}
	return nil
}

func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	gf := addGridFlags(fs)
	workers := fs.Int("workers", 0, "scenario-level parallelism (0 = all cores)")
	cacheCap := fs.Int("cache", 0, "cache capacity for the warm pass (0 = fit the grid)")
	cacheDir := fs.String("cache-dir", "", "disk result-cache directory (overrides -cache)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "size cap for -cache-dir: evict LRU entries beyond N bytes (0 = unbounded)")
	backend := fs.String("backend", "montecarlo", "evaluator backend: montecarlo, theory, chainsim, arena")
	af := addAdaptiveFlags(fs)
	traceFile := fs.String("trace", "", "write NDJSON trace events of both passes to FILE (\"-\" = stderr)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := gf.specs()
	if err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("empty scenario list")
	}
	capacity := *cacheCap
	if capacity <= 0 {
		capacity = len(specs)
	}
	ev, err := fairness.BackendByName(*backend)
	if err != nil {
		return err
	}
	if ev, err = af.apply(ev, *backend); err != nil {
		return err
	}
	cache, err := cacheFor(capacity, *cacheDir, *cacheMaxBytes)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	// A private registry meters both passes; the efficiency lines below
	// read it back through the same snapshot path /metrics would serve.
	metrics := fairness.NewMetricsRegistry()
	var tracer *fairness.Tracer
	if *traceFile != "" {
		w, closeTrace, err := traceWriter(*traceFile)
		if err != nil {
			return err
		}
		defer closeTrace()
		tracer = fairness.NewTracer(w)
	}
	engOpts := []fairness.EngineOption{
		fairness.WithWorkers(*workers),
		fairness.WithCache(cache),
		fairness.WithTelemetry(metrics, tracer),
	}
	if ev != nil {
		engOpts = append(engOpts, fairness.WithBackend(ev))
	}
	eng := fairness.NewEngine(engOpts...)
	cold, err := eng.Sweep(ctx, specs)
	if err != nil {
		return err
	}
	warm, err := eng.Sweep(ctx, specs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cold: %s\n", cold.Summary())
	fmt.Fprintf(stdout, "warm: %s\n", warm.Summary())
	if warm.Stats.WallMS > 0 && cold.Stats.WallMS > 0 {
		fmt.Fprintf(stdout, "warm/cold speedup: %.1fx\n", cold.Stats.WallMS/warm.Stats.WallMS)
	}
	// Registry-derived efficiency figures across both passes (the same
	// series a /metrics scrape of this process would report).
	snap := metrics.Snapshot()
	// The metric label is the resolved evaluator name, which differs
	// from the -backend flag when -adaptive upgrades it.
	label := fmt.Sprintf("{backend=%q}", eng.BackendName())
	scen := snap["fairness_sweep_scenarios_total"+label]
	hits := snap["fairness_sweep_cache_hits_total"+label]
	trials := snap["fairness_sweep_trials_total"+label]
	if scen > 0 {
		fmt.Fprintf(stdout, "cache hit ratio: %.3f (%d/%d scenarios)\n", hits/scen, int64(hits), int64(scen))
		fmt.Fprintf(stdout, "trials/scenario: %.1f\n", trials/scen)
	}
	return nil
}

// arenaRow is the stable per-scenario record arena prints: everything
// deterministic (no timing, no cache bookkeeping), so -json output can
// be diffed against a committed golden file in CI.
type arenaRow struct {
	Name         string                     `json:"name"`
	Hash         string                     `json:"hash"`
	Backend      string                     `json:"backend"`
	Share        float64                    `json:"share"`
	Verdict      fairness.Verdict           `json:"verdict"`
	Equitability float64                    `json:"equitability"`
	Equilibrium  *fairness.ArenaEquilibrium `json:"equilibrium"`
}

// arenaCmd runs best-response equilibrium sweeps: each scenario of the
// grid is an honest baseline game, the arena backend lets every miner
// adopt best responses from the strategy menu until play fixes, and the
// report shows equilibrium fairness next to the honest-baseline deltas.
func arenaCmd(args []string) error {
	fs := flag.NewFlagSet("arena", flag.ContinueOnError)
	gf := addGridFlags(fs)
	candidates := fs.String("candidates", "", "strategy menu: semicolon-separated name:key=val,... entries (default: the protocol's registered strategies)")
	maxRounds := fs.Int("max-rounds", 0, "best-response round-robin bound (0 = default)")
	workers := fs.Int("workers", 0, "scenario-level parallelism (0 = all cores)")
	cacheCap := fs.Int("cache", 0, "LRU result-cache capacity (0 = no cache)")
	cacheDir := fs.String("cache-dir", "", "disk result-cache directory (overrides -cache)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "size cap for -cache-dir: evict LRU entries beyond N bytes (0 = unbounded)")
	asJSON := fs.Bool("json", false, "print the equilibrium report as JSON (stable: no timing fields)")
	outFile := fs.String("out", "", "also write the JSON report to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The arena assigns strategies itself; the adversary/treatment axes
	// would contradict that.
	for _, conflict := range []struct {
		flag string
		set  bool
	}{
		{"-strategy", *gf.strategy != ""},
		{"-selfish", *gf.selfish >= 0},
		{"-gamma", *gf.gamma != ""},
		{"-fork-rate", *gf.forkRate != ""},
		{"-withhold", *gf.withhold != ""},
	} {
		if conflict.set {
			return fmt.Errorf("%s does not apply to arena: the arena assigns strategies itself (use -candidates to shape the menu)", conflict.flag)
		}
	}
	specs, err := gf.specs()
	if err != nil {
		return err
	}
	cfg := fairness.ArenaConfig{MaxRounds: *maxRounds}
	if *candidates != "" {
		if cfg.Candidates, err = fairness.ParseStrategies(*candidates); err != nil {
			return fmt.Errorf("-candidates: %w", err)
		}
	}
	cache, err := cacheFor(*cacheCap, *cacheDir, *cacheMaxBytes)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	engOpts := []fairness.EngineOption{
		fairness.WithWorkers(*workers),
		fairness.WithBackend(fairness.ArenaBackend(cfg)),
	}
	if cache != nil {
		engOpts = append(engOpts, fairness.WithCache(cache))
	}
	eng := fairness.NewEngine(engOpts...)
	rep, err := eng.Sweep(ctx, specs)
	if err != nil {
		if rep != nil && rep.Partial {
			fmt.Fprintf(stderr, "arena sweep interrupted: %s\n", rep.Summary())
		}
		return err
	}
	rows := make([]arenaRow, len(rep.Outcomes))
	for i, o := range rep.Outcomes {
		rows[i] = arenaRow{
			Name: o.Name, Hash: o.Hash, Backend: o.Backend, Share: o.Share,
			Verdict: o.Verdict, Equitability: o.Equitability, Equilibrium: o.Arena,
		}
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if *asJSON {
		fmt.Fprintf(stdout, "%s\n", data)
	} else {
		fmt.Fprintln(stdout, arenaTable(rows))
		fmt.Fprintln(stdout, rep.Summary())
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if !*asJSON {
			fmt.Fprintf(stdout, "wrote %s\n", *outFile)
		}
	}
	return nil
}

// arenaTable renders the equilibrium report, one scenario per row.
func arenaTable(rows []arenaRow) string {
	tb := table.New("Scenario", "a", "Equilibrium", "Rnds", "Conv", "E[lambda]", "Delta", "Expect.", "Robust").
		AlignAll(table.Right).SetAlign(0, table.Left).SetAlign(2, table.Left)
	for _, r := range rows {
		profile, delta, rounds, conv := "?", 0.0, 0, "?"
		if eq := r.Equilibrium; eq != nil {
			profile = profileSummary(eq)
			rounds = eq.Rounds
			conv = "yes"
			if !eq.Converged {
				conv = "NO"
			}
			// The tracked miner is always miner 0 of the expanded grids.
			delta = eq.Delta(0)
		}
		tb.AddRow(r.Name, fmt.Sprintf("%.3f", r.Share), profile,
			fmt.Sprintf("%d", rounds), conv,
			fmt.Sprintf("%.4f", r.Verdict.MeanLambda), fmt.Sprintf("%+.4f", delta),
			r.Verdict.ExpectationalFair, r.Verdict.RobustFair)
	}
	return tb.String()
}

// profileSummary compresses an equilibrium profile into its deviations
// ("all-honest" when nobody deviates).
func profileSummary(eq *fairness.ArenaEquilibrium) string {
	if len(eq.Deviators) == 0 {
		return "all-honest"
	}
	parts := make([]string, len(eq.Deviators))
	for i, m := range eq.Deviators {
		parts[i] = fmt.Sprintf("%s@%d", eq.Profile[m], m)
	}
	return strings.Join(parts, " ")
}

// conformCmd runs the cross-backend conformance suite: the canonical
// honest + adversarial corpus on montecarlo and chainsim with
// statistical-parity and skew-direction assertions, plus the exact
// capability-error contract. Exits non-zero on any violation, so CI can
// gate on it directly.
func conformCmd(args []string) error {
	fs := flag.NewFlagSet("conform", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the conformance report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	a, b := conformance.DefaultBackends()
	rep, err := conformance.Run(ctx, a, b, conformance.Corpus())
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	} else {
		fmt.Fprint(stdout, rep.Summary())
	}
	if n := rep.Failures(); n > 0 {
		return fmt.Errorf("%d conformance failures", n)
	}
	return nil
}

func splitStrings(csv string) ([]string, error) {
	var out []string
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, f)
		}
	}
	return out, nil
}

func splitFloats(csv string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func usage() {
	fmt.Fprint(os.Stderr, strings.TrimLeft(`
fairsweep — declarative fairness-scenario sweeps over the protocols of
"Do the Rich Get Richer? Fairness Analysis for Blockchain Incentives"

commands:
  expand [flags]   expand the grid, print the scenario list as JSON
  run [flags]      run the sweep, print the fairness report
  arena [flags]    best-response equilibrium sweep: every miner picks its
                   best strategy until play fixes, report equilibrium
                   fairness next to the honest baseline
  bench [flags]    run cold + warm cache passes, print throughput
  conform [flags]  run the cross-backend conformance corpus (montecarlo
                   vs chainsim parity, capability-error contract)

grid flags:
  -spec FILE  -protocols CSV  -w CSV  -stake CSV  -miners CSV  -withhold CSV
  -strategy LIST  -selfish N  -gamma CSV
  -fork-rate CSV  -blocks N  -trials N  -checkpoints N  -seed S

run flags:
  -workers N  -cache N  -cache-dir DIR  -cache-max-bytes N  -backend NAME
  -repeat N  -trace FILE  -json  -ndjson  -out FILE

arena flags:
  -candidates LIST  -max-rounds N  -workers N  -cache N  -cache-dir DIR
  -cache-max-bytes N  -json  -out FILE

conform flags:
  -json
`, "\n"))
}
