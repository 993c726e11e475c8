package fairness

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/montecarlo"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Engine is the context-aware entry point of the library: one configured
// evaluation pipeline — a backend, a result cache, a worker budget, an
// observer — shared by every run. Construct it once with NewEngine and
// functional options, then drive it with Evaluate (one ad-hoc protocol),
// EvaluateScenario (one declarative scenario), Sweep (a scenario list,
// aggregated) or Stream (a scenario list, as an iterator).
//
// Every method takes a context.Context threaded down through the sweep
// runner and the Monte-Carlo trial loops, so cancelling a context stops
// a run promptly: Sweep returns the partial report it finished together
// with ctx.Err().
//
// The zero-configuration NewEngine() runs the Monte-Carlo backend with
// no cache on GOMAXPROCS workers.
// An Engine is safe for concurrent use when its cache and observer are
// (both shipped CacheStore implementations are).
type Engine struct {
	workers      int
	trialWorkers int
	cache        CacheStore
	backend      Evaluator
	adaptive     *AdaptiveTrials
	observer     func(SweepOutcome)
	cluster      *cluster.Options
	metrics      *MetricsRegistry
	tracer       *Tracer
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithWorkers caps scenario-level parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) EngineOption {
	return func(e *Engine) { e.workers = n }
}

// WithTrialWorkers caps each scenario's inner Monte-Carlo trial
// parallelism (0 = the saturation-aware default: 1 while scenario
// workers fill the machine, GOMAXPROCS otherwise).
func WithTrialWorkers(n int) EngineOption {
	return func(e *Engine) { e.trialWorkers = n }
}

// WithCache plugs a result cache into the engine: NewSweepCache for an
// in-process LRU, NewDiskCache for a content-addressed store that
// survives restarts and can be shared across processes. Keys are
// namespaced by backend, so one cache may serve several engines.
func WithCache(c CacheStore) EngineOption {
	return func(e *Engine) { e.cache = c }
}

// WithBackend selects the Evaluator answering each scenario:
// MonteCarloBackend (the default), TheoryBackend or ChainSimBackend —
// or any custom Evaluator implementation.
func WithBackend(ev Evaluator) EngineOption {
	return func(e *Engine) { e.backend = ev }
}

// WithAdaptiveTrials opts the engine's Monte-Carlo backend into adaptive
// early stopping: each scenario's Trials becomes a budget, runs halt as
// soon as the unfair-probability verdict is resolved at the scenario's
// ε/δ with total error probability a.Confidence, and reports carry the
// executed trial count plus the achieved eps/delta certificate. Zero
// fields resolve to the montecarlo package defaults. The option applies
// to the default backend or an explicit MonteCarloBackend; closed-form
// and chain-sim backends ignore it.
func WithAdaptiveTrials(a AdaptiveTrials) EngineOption {
	return func(e *Engine) { e.adaptive = &a }
}

// WithObserver streams every outcome to fn as it is produced, across all
// of the engine's sweeps. Calls are serialised within one run; the
// completion order is scheduling-dependent.
func WithObserver(fn func(SweepOutcome)) EngineOption {
	return func(e *Engine) { e.observer = fn }
}

// WithCluster distributes the engine's sweeps across a pool of fairnessd
// worker nodes (internal/cluster): the coordinator partitions the
// scenario list into shards, fans them out over HTTP with work-stealing
// and per-shard retries, and merges the workers' streams into a report
// bit-identical — modulo timing/cache bookkeeping — to a local sweep.
//
// The engine owns three of the options: Cache defaults to the engine's
// cache (pointing both at one shared directory gives the whole cluster a
// warm start), Backend is always the engine's backend name (every worker
// must run the same backend — the coordinator verifies this via
// /v1/healthz and refuses mismatches), and OnOutcome is the engine's
// observer chain. Evaluation itself happens on the workers; the engine's
// local WithBackend evaluator only names the expected backend and the
// cache namespace.
//
// Evaluate (ad-hoc protocols) never goes through the cluster — it
// bypasses the scenario pipeline entirely.
// The cluster may be self-organizing: set ClusterOptions.Registry (and
// serve it with a RegistryServer) and workers that register themselves
// — fairnessd -register — join the pool mid-run, shard sizes adapt to
// each worker's measured throughput, and a run that finds no workers
// waits for the first registration instead of failing.
func WithCluster(opts ClusterOptions) EngineOption {
	return func(e *Engine) {
		c := opts
		e.cluster = &c
	}
}

// WithTelemetry plugs an observability sink into the engine: every run
// ticks its sweep counters and per-backend latency histograms on m and
// (in cluster mode) its shard-lifecycle counters too; tr, when non-nil,
// holds the engine's spans, open and completed, for GET /v1/traces
// (serve it with TracesHandler) and writes them as NDJSON when it has a
// writer. A local run's spans are a sweep span with one scenario span per
// unique scenario; a cluster run's are the coordinator's sweep,
// pool_wait, dispatch and merge spans. Either argument may be nil: with
// no tracer, spans still propagate (workers parent correctly) but
// nothing keeps them. Pass DefaultMetrics() to aggregate with the
// process-global simulation totals (Monte-Carlo trials, chainsim
// blocks/forks) on one registry — what fairnessd and the fairctl
// coordinator expose at /metrics.
//
// Without this option every engine still meters itself on a private
// registry, readable through Engine.Metrics().
func WithTelemetry(m *MetricsRegistry, tr *Tracer) EngineOption {
	return func(e *Engine) { e.metrics, e.tracer = m, tr }
}

// NewEngine builds an evaluation engine from functional options.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(e)
	}
	if e.adaptive != nil {
		switch b := e.backend.(type) {
		case nil:
			e.backend = &sweep.MonteCarloEvaluator{Adaptive: e.adaptive}
		case *sweep.MonteCarloEvaluator:
			clone := *b
			clone.Adaptive = e.adaptive
			e.backend = &clone
		}
	}
	if e.metrics == nil {
		e.metrics = telemetry.NewRegistry()
	}
	return e
}

// Metrics returns the engine's metrics registry — the one WithTelemetry
// configured, or the engine's private registry otherwise. Snapshot() it
// for programmatic readings, or serve it with MetricsHandler.
func (e *Engine) Metrics() *MetricsRegistry { return e.metrics }

// sweepOptions assembles the sweep.Options for one run, chaining an
// optional per-run observer after the engine-level one.
func (e *Engine) sweepOptions(onOutcome func(SweepOutcome)) sweep.Options {
	opts := sweep.Options{
		Workers:      e.workers,
		TrialWorkers: e.trialWorkers,
		Cache:        e.cache,
		Evaluator:    e.backend,
		Metrics:      e.metrics,
		Tracer:       e.tracer,
	}
	switch {
	case e.observer != nil && onOutcome != nil:
		obs := e.observer
		opts.OnOutcome = func(o sweep.Outcome) { obs(o); onOutcome(o) }
	case e.observer != nil:
		opts.OnOutcome = e.observer
	case onOutcome != nil:
		opts.OnOutcome = onOutcome
	}
	return opts
}

// backendName returns the evaluator name the engine computes (or, in
// cluster mode, expects its workers to compute) under — the cache-key
// namespace of every run.
func (e *Engine) backendName() string {
	if e.backend == nil {
		return "montecarlo"
	}
	return e.backend.Name()
}

// BackendName reports the name of the evaluator the engine runs under —
// "montecarlo" by default, a variant like "montecarlo+es(...)" when
// adaptive trials are configured. This is the cache-key namespace and
// the backend label on every metric the engine emits.
func (e *Engine) BackendName() string { return e.backendName() }

// Capabilities returns the configured backend's declared scenario
// coverage: which protocols it answers and whether it covers the
// withholding, adversary and network treatment blocks. A scenario
// outside this coverage fails with a CapabilityError rather than a
// silently wrong number.
func (e *Engine) Capabilities() Capabilities {
	return sweep.CapabilityOf(e.backend)
}

// runSweep is the single dispatch point of every scenario run: local
// through the sweep runner, or distributed through the cluster
// coordinator when WithCluster is configured.
func (e *Engine) runSweep(ctx context.Context, specs []Scenario, onOutcome func(SweepOutcome)) (*SweepReport, error) {
	opts := e.sweepOptions(onOutcome)
	if e.cluster == nil {
		return sweep.RunContext(ctx, specs, opts)
	}
	// A scenario outside the backend's coverage would fail on the worker
	// as a generic shard error and be retried with backoff — a slow path
	// to a lost CapabilityError. Refuse it here, before any shard ships,
	// with the same typed error a local run returns. Custom evaluators
	// that don't declare capabilities are skipped: only they know what
	// their remote twins cover.
	if _, capable := e.backend.(sweep.Capable); capable || e.backend == nil {
		caps := sweep.CapabilityOf(e.backend)
		for i := range specs {
			if err := caps.Check(specs[i].Normalized()); err != nil {
				return nil, fmt.Errorf("fairness: scenario %d (%s): %w", i, specs[i].Name, err)
			}
		}
	}
	c := *e.cluster
	if c.Cache == nil {
		c.Cache = e.cache
	}
	if c.Metrics == nil {
		c.Metrics = e.metrics
	}
	if c.Tracer == nil {
		c.Tracer = e.tracer
	}
	c.Backend = e.backendName()
	c.OnOutcome = opts.OnOutcome
	return cluster.Run(ctx, specs, c)
}

// Sweep evaluates every scenario through the engine's backend and cache
// and aggregates per-scenario fairness verdicts with cache/throughput
// statistics. Outcomes stream to the engine's observer as they complete.
//
// On cancellation Sweep returns the partial report — completed positions
// filled, Report.Partial set — together with ctx.Err(); completed
// outcomes are identical to an uncancelled run's.
func (e *Engine) Sweep(ctx context.Context, specs []Scenario) (*SweepReport, error) {
	return e.runSweep(ctx, specs, nil)
}

// SweepObserved is Sweep with a per-run observer: fn sees every outcome
// as it completes (after the engine-level observer, when both are set)
// AND the aggregated report comes back with its statistics — the shape
// service frontends like fairnessd's shard endpoint need, where one
// response must both stream outcomes and close with a summary.
func (e *Engine) SweepObserved(ctx context.Context, specs []Scenario, fn func(SweepOutcome)) (*SweepReport, error) {
	return e.runSweep(ctx, specs, fn)
}

// Stream evaluates the scenarios and yields each outcome as it
// completes, in completion order. Breaking out of the loop cancels the
// remaining work. A run-level error (including ctx cancellation) is
// yielded once, with a zero outcome, after the completed outcomes.
func (e *Engine) Stream(ctx context.Context, specs []Scenario) iter.Seq2[SweepOutcome, error] {
	return func(yield func(SweepOutcome, error) bool) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		outCh := make(chan SweepOutcome)
		errCh := make(chan error, 1)
		go func() {
			_, err := e.runSweep(runCtx, specs, func(o SweepOutcome) {
				select {
				case outCh <- o:
				case <-runCtx.Done():
				}
			})
			errCh <- err
			close(outCh)
		}()
		stopped := false
		for o := range outCh {
			if !yield(o, nil) {
				stopped = true
				cancel()
				break
			}
		}
		for range outCh { // drain so the runner's sends never block
		}
		if err := <-errCh; err != nil && !stopped {
			yield(SweepOutcome{}, err)
		}
	}
}

// EvaluateScenario answers one declarative scenario through the engine's
// backend and cache — a one-element sweep, sharing every piece of the
// pipeline (so repeated calls hit the cache, and the observer sees the
// outcome).
func (e *Engine) EvaluateScenario(ctx context.Context, s Scenario) (SweepOutcome, error) {
	rep, err := e.Sweep(ctx, []Scenario{s})
	if err != nil {
		return SweepOutcome{}, err
	}
	return rep.Outcomes[0], nil
}

// Arena answers one honest-baseline scenario with best-response
// equilibrium dynamics: every miner iteratively adopts the best
// response from cfg's strategy menu (the zero ArenaConfig selects the
// protocol's default menu) until play fixes, and the outcome reports
// the fairness of the fixed point with the equilibrium itself on
// Outcome.Arena — profile, per-miner payoffs and honest-baseline
// deltas. The scenario must not carry adversary, network or
// withholding blocks; the arena assigns strategies itself.
//
// The run shares the engine's cache, workers and observer but
// evaluates through ArenaBackend(cfg) regardless of the configured
// backend — cache keys are namespaced by the arena's config-encoding
// name, so arena results never collide with the engine's usual
// backend. In cluster mode the workers must run the same arena backend
// (fairnessd -backend 'arena(...)'); results merge bit-identically
// with a local run.
func (e *Engine) Arena(ctx context.Context, s Scenario, cfg ArenaConfig) (SweepOutcome, error) {
	sub := *e
	sub.backend = ArenaBackend(cfg)
	sub.adaptive = nil
	return sub.EvaluateScenario(ctx, s)
}

// ErrInvalidAllocation reports an initial allocation Evaluate cannot
// assess (empty, or no positive total).
var ErrInvalidAllocation = errors.New("fairness: invalid initial allocation")

// evalSettings carries Engine.Evaluate's resolved run parameters. It
// starts from the defaults, so an option that sets a zero value is
// honoured.
type evalSettings struct {
	trials   int
	blocks   int
	seed     uint64
	params   Params
	withhold int
}

// EvalOption configures one Engine.Evaluate run.
type EvalOption func(*evalSettings)

// WithTrials sets the number of independent games (default 1000).
func WithTrials(n int) EvalOption {
	return func(s *evalSettings) { s.trials = n }
}

// WithBlocks sets the horizon in blocks/epochs (default 5000).
func WithBlocks(n int) EvalOption {
	return func(s *evalSettings) { s.blocks = n }
}

// WithSeed sets the base RNG seed. WithSeed(0) runs seed 0; unset, the
// seed is 1.
func WithSeed(seed uint64) EvalOption {
	return func(s *evalSettings) { s.seed = seed }
}

// WithFairnessParams sets the robust-fairness (ε, δ). A literal zero
// Params is honoured (ε = 0 collapses the fair area to the point {a});
// unset, the parameters are DefaultParams.
func WithFairnessParams(p Params) EvalOption {
	return func(s *evalSettings) { s.params = p }
}

// WithWithholding applies the Section 6.3 reward-withholding treatment
// with period k (default: off).
func WithWithholding(k int) EvalOption {
	return func(s *evalSettings) { s.withhold = k }
}

// Evaluate runs a Monte-Carlo experiment for miner 0 of the given
// initial allocation and assesses both fairness notions at the final
// horizon.
//
// The protocol is an arbitrary instance, not a declarative scenario, so
// this path bypasses the scenario pipeline entirely: it has no content
// hash to cache under, and it ALWAYS samples via Monte-Carlo — the
// engine's WithBackend and WithCache configuration does not apply here.
// To evaluate through the configured backend and cache, express the
// question as a Scenario and call EvaluateScenario.
//
// Defaults: 1000 trials, 5000 blocks, seed 1, DefaultParams. Options
// distinguish unset from zero: WithSeed(0) and a zero WithFairnessParams
// are both honoured.
func (e *Engine) Evaluate(ctx context.Context, p Protocol, initial []float64, opts ...EvalOption) (Verdict, error) {
	s := evalSettings{trials: 1000, blocks: 5000, seed: 1, params: DefaultParams}
	for _, opt := range opts {
		opt(&s)
	}
	if len(initial) == 0 {
		return Verdict{}, fmt.Errorf("%w: empty", ErrInvalidAllocation)
	}
	total := 0.0
	for _, v := range initial {
		total += v
	}
	if !(total > 0) {
		return Verdict{}, fmt.Errorf("%w: total share %v, need > 0", ErrInvalidAllocation, total)
	}
	var gameOpts []game.Option
	if s.withhold > 0 {
		gameOpts = append(gameOpts, game.WithWithholding(s.withhold))
	}
	cfg := montecarlo.Config{
		Trials:      s.trials,
		Blocks:      s.blocks,
		Seed:        s.seed,
		Checkpoints: []int{s.blocks},
		Workers:     e.trialWorkers,
		GameOptions: gameOpts,
	}
	if e.adaptive != nil {
		cfg.Batch = e.adaptive.Batch
		cfg.Stop = &montecarlo.StopRule{
			Share:      initial[0] / total,
			Eps:        s.params.Eps,
			Delta:      s.params.Delta,
			Confidence: e.adaptive.Confidence,
			MinTrials:  e.adaptive.MinTrials,
		}
	}
	res, err := montecarlo.RunContext(ctx, p, initial, cfg)
	if err != nil {
		return Verdict{}, err
	}
	a := initial[0] / total
	return s.params.Assess(p.Name(), res.FinalSamples(), a), nil
}
