// Package sweep is the scenario sweep engine: it fans a list of
// declarative fairness scenarios (internal/scenario) across a worker
// pool, evaluates each one through a pluggable Evaluator backend
// (Monte-Carlo, closed-form theory, or block-level chainsim),
// deduplicates and caches results by scenario content hash through a
// pluggable CacheStore (in-memory LRU or content-addressed disk), and
// aggregates everything into a Report with per-scenario fairness
// verdicts and sweep-level throughput/cache statistics.
//
// Runs are context-aware: RunContext stops dispatching on cancellation,
// interrupts the in-flight evaluations, and returns the partial report
// together with ctx.Err(), so callers can stream what completed.
//
// Determinism: scenario seeds live in the specs themselves and backends
// derive per-trial streams from them, so a sweep's Report is a pure
// function of its scenario list and backend — independent of worker
// count, scheduling and cache state (cache hits change only the timing
// stats, never the verdicts).
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/table"
	"repro/internal/telemetry"
)

// CacheStore is a pluggable result cache keyed by "backend:contenthash".
// Two implementations ship with the engine: the in-memory LRU Cache and
// the cross-process DiskCache. Implementations must be safe for
// concurrent use; Get/Add follow cache semantics — lossy, never failing
// the computation they memoise.
type CacheStore interface {
	// Get returns the cached outcome under key, if present.
	Get(key string) (Outcome, bool)
	// Add stores an outcome under key (best-effort).
	Add(key string, out Outcome)
	// Len returns the number of cached outcomes.
	Len() int
}

// Options configures a sweep run.
type Options struct {
	// Workers caps scenario-level parallelism; 0 means GOMAXPROCS.
	Workers int
	// TrialWorkers caps each scenario's inner Monte-Carlo parallelism.
	// 0 picks a sensible default: 1 while scenarios already saturate the
	// machine, GOMAXPROCS when scenarios run one at a time.
	TrialWorkers int
	// Cache, when non-nil, is consulted before computing a scenario and
	// filled afterwards. Sharing one CacheStore across sweeps (or, for a
	// DiskCache, across processes) lets overlapping grids skip
	// recomputation entirely. Keys are namespaced by backend, so caches
	// may be shared between sweeps running different Evaluators.
	Cache CacheStore
	// Evaluator selects the backend answering each scenario; nil means
	// the reference MonteCarloEvaluator.
	Evaluator Evaluator
	// OnOutcome, when non-nil, streams each outcome as it is produced
	// (calls are serialised; completion order is scheduling-dependent).
	OnOutcome func(Outcome)
	// Metrics, when non-nil, receives the sweep's telemetry: scenario,
	// cache-hit, computed and trial counters plus the per-backend
	// fairness_eval_seconds latency histogram. Handles are resolved once
	// per run, so the per-scenario cost is a few atomic adds.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the sweep's spans: one sweep span
	// (service "local") under the context's span, or rooting a fresh
	// trace, with one scenario span per unique scenario beneath it.
	Tracer *telemetry.Tracer
}

// Outcome is the evaluation of one scenario.
type Outcome struct {
	// Name is the scenario's label, Hash its canonical content hash.
	Name string        `json:"name,omitempty"`
	Hash string        `json:"hash"`
	Spec scenario.Spec `json:"spec"`
	// Share is the tracked miner's initial resource share a.
	Share float64 `json:"share"`
	// Verdict carries both fairness notions at the final horizon.
	Verdict core.Verdict `json:"verdict"`
	// Equitability is Fanti et al.'s normalised dispersion of final λ.
	Equitability float64 `json:"equitability"`
	// ConvergenceBlock is the first checkpoint from which the unfair
	// probability stays at or below δ, or -1 (Table 1's "Cvg. Time").
	ConvergenceBlock int `json:"convergence_block"`
	// Backend names the Evaluator that produced the outcome.
	Backend string `json:"backend,omitempty"`
	// TrialsRun is the number of trials the evaluation actually executed
	// and TrialsBudget the configured count; they differ only when an
	// adaptive stopping rule resolved the verdict early (EarlyStopped).
	// Zero for closed-form backends.
	TrialsRun    int64 `json:"trials_run,omitempty"`
	TrialsBudget int64 `json:"trials_budget,omitempty"`
	EarlyStopped bool  `json:"early_stopped,omitempty"`
	// AchievedEps is the Hoeffding half-width on the unfair probability
	// at the run's confidence given TrialsRun samples; AchievedDelta the
	// resulting certified upper bound on the unfair probability. Zero
	// for closed-form backends.
	AchievedEps   float64 `json:"achieved_eps,omitempty"`
	AchievedDelta float64 `json:"achieved_delta,omitempty"`
	// Arena, set only by the best-response arena backend, is the
	// equilibrium the verdict was assessed at: the fixed-point strategy
	// profile, per-miner payoffs and honest-baseline payoffs.
	Arena *arena.Equilibrium `json:"arena,omitempty"`
	// ElapsedMS is the wall time spent computing this scenario; 0 for
	// cache hits.
	ElapsedMS float64 `json:"elapsed_ms"`
	// CacheHit reports whether the outcome was served without running
	// any evaluation (result cache or in-sweep deduplication).
	CacheHit bool `json:"cache_hit"`
}

// Stats summarises a sweep run.
type Stats struct {
	// Scenarios is the number of requested scenarios, CacheHits how many
	// were answered without computing, Computed how many ran.
	Scenarios int `json:"scenarios"`
	CacheHits int `json:"cache_hits"`
	Computed  int `json:"computed"`
	// TrialsRun counts Monte-Carlo trials actually executed.
	TrialsRun int64 `json:"trials_run"`
	// WallMS is the end-to-end sweep wall time.
	WallMS float64 `json:"wall_ms"`
}

// ScenariosPerSec returns sweep throughput over the full wall time.
func (s Stats) ScenariosPerSec() float64 {
	if s.WallMS <= 0 {
		return 0
	}
	return float64(s.Scenarios) / (s.WallMS / 1000)
}

// Report is the aggregated result of one sweep. Outcomes are in the
// order of the input scenario list.
type Report struct {
	Outcomes []Outcome `json:"outcomes"`
	Stats    Stats     `json:"stats"`
	// Partial marks a report cut short by context cancellation: positions
	// whose outcome has an empty Hash were never evaluated.
	Partial bool `json:"partial,omitempty"`
}

// noCacheKey marks a context whose sweeps run without a result cache.
type noCacheKey struct{}

// WithoutCache returns a context under which RunContext neither reads
// nor fills Options.Cache: every unique scenario is evaluated, and
// in-sweep deduplication still applies. A cluster worker runs a job's
// shards this way, since the job's coordinator keeps their outcomes in
// the tenant's own cache namespace.
func WithoutCache(ctx context.Context) context.Context {
	return context.WithValue(ctx, noCacheKey{}, true)
}

// Run evaluates every scenario and aggregates the outcomes. It is
// RunContext with a background context.
func Run(specs []scenario.Spec, opts Options) (*Report, error) {
	return RunContext(context.Background(), specs, opts)
}

// RunContext evaluates every scenario and aggregates the outcomes.
// Scenarios are validated up front; identical scenarios (same content
// hash) are computed once and fanned out to every position that
// requested them.
//
// Cancellation: when ctx ends mid-sweep, no new scenario starts, the
// in-flight evaluations are interrupted at their next check, and
// RunContext returns the PARTIAL report — completed positions filled,
// the rest zero-valued and the report marked Partial — together with
// ctx.Err(). Completed outcomes are identical to what an uncancelled
// sweep would have produced.
//
// Under a WithoutCache context the run ignores opts.Cache.
func RunContext(ctx context.Context, specs []scenario.Spec, opts Options) (*Report, error) {
	start := time.Now()
	if ctx.Value(noCacheKey{}) != nil {
		opts.Cache = nil
	}
	norm := make([]scenario.Spec, len(specs))
	hashes := make([]string, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("sweep: scenario %d (%s): %w", i, s.Name, err)
		}
		norm[i] = s.Normalized()
		// Outcomes carry the per-position Name; the cached canonical
		// spec must not leak one sweep's label into another's report.
		norm[i].Name = ""
		h, err := s.Hash()
		if err != nil {
			return nil, fmt.Errorf("sweep: scenario %d (%s): %w", i, s.Name, err)
		}
		hashes[i] = h
	}

	// Group positions by content hash: each unique scenario is computed
	// (or cache-served) exactly once.
	groups := make(map[string][]int, len(specs))
	uniq := make([]string, 0, len(specs))
	for i, h := range hashes {
		if _, seen := groups[h]; !seen {
			uniq = append(uniq, h)
		}
		groups[h] = append(groups[h], i)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(uniq) {
		workers = len(uniq)
	}
	trialWorkers := opts.TrialWorkers
	if trialWorkers <= 0 {
		if workers > 1 {
			trialWorkers = 1
		} else {
			trialWorkers = runtime.GOMAXPROCS(0)
		}
	}

	rep := &Report{Outcomes: make([]Outcome, len(specs))}
	rep.Stats.Scenarios = len(specs)

	ev := withTrialWorkers(opts.Evaluator, trialWorkers)

	backend := ev.Name()
	var (
		mScenarios = opts.Metrics.Counter("fairness_sweep_scenarios_total", "backend", backend)
		mHits      = opts.Metrics.Counter("fairness_sweep_cache_hits_total", "backend", backend)
		mComputed  = opts.Metrics.Counter("fairness_sweep_computed_total", "backend", backend)
		mTrials    = opts.Metrics.Counter("fairness_sweep_trials_total", "backend", backend)
		hEval      = opts.Metrics.Histogram("fairness_eval_seconds", telemetry.DefBuckets, "backend", backend)
	)
	// The sweep span joins the caller's trace (a traced job or cluster
	// worker), or roots one of its own.
	span := telemetry.StartSpan(opts.Tracer, nil, telemetry.SpanContextFrom(ctx),
		"local", "sweep", "backend", backend, "scenarios", len(specs), "unique", len(uniq))

	var (
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
		trialsRun atomic.Int64
		computed  atomic.Int64
		emitMu    sync.Mutex
	)
	hashCh := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range hashCh {
				if ctx.Err() != nil {
					continue // drain the channel without starting new work
				}
				idxs := groups[h]
				spec := norm[idxs[0]]
				sc := telemetry.StartSpan(opts.Tracer, nil, span.Context(), "local", "scenario",
					"hash", h, "name", specs[idxs[0]].Name)
				out, hit, trials, err := evaluate(ctx, ev, spec, h, opts.Cache)
				trialsRun.Add(trials)
				mTrials.Add(trials)
				if err != nil {
					sc.End("error", err.Error())
					if ctx.Err() != nil {
						continue // cancellation, not an evaluation failure
					}
					errOnce.Do(func() { firstErr = fmt.Errorf("sweep: scenario %q: %w", specs[idxs[0]].Name, err) })
					continue
				}
				sc.End("cache_hit", hit, "trials", trials, "positions", len(idxs))
				if !hit {
					computed.Add(1)
					mComputed.Inc()
					hEval.Observe(out.ElapsedMS / 1000)
				}
				for j, idx := range idxs {
					o := out
					o.Name = specs[idx].Name
					// Positions beyond the first reuse the computation.
					o.CacheHit = hit || j > 0
					if o.CacheHit {
						o.ElapsedMS = 0
					}
					mScenarios.Inc()
					if o.CacheHit {
						mHits.Inc()
					}
					rep.Outcomes[idx] = o
					if opts.OnOutcome != nil {
						emitMu.Lock()
						opts.OnOutcome(o)
						emitMu.Unlock()
					}
				}
			}
		}()
	}
dispatch:
	for _, h := range uniq {
		select {
		case hashCh <- h:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(hashCh)
	wg.Wait()

	rep.Stats.TrialsRun = trialsRun.Load()
	rep.Stats.Computed = int(computed.Load())
	rep.Stats.WallMS = float64(time.Since(start).Microseconds()) / 1000
	cerr := ctx.Err()
	switch {
	case cerr != nil:
		rep.Partial = true
		filled := 0
		for _, o := range rep.Outcomes {
			if o.Hash != "" {
				filled++
			}
		}
		rep.Stats.CacheHits = filled - rep.Stats.Computed
	case firstErr != nil:
		span.End("error", firstErr.Error())
		return nil, firstErr
	default:
		rep.Stats.CacheHits = len(specs) - rep.Stats.Computed
	}
	span.End("computed", rep.Stats.Computed, "cache_hits", rep.Stats.CacheHits,
		"trials", rep.Stats.TrialsRun, "wall_ms", rep.Stats.WallMS, "partial", rep.Partial)
	return rep, cerr
}

// CacheKey returns the result-cache key of a scenario hash under a
// backend: keys are namespaced by evaluator name so different backends
// never serve each other's answers.
func CacheKey(backend, hash string) string { return backend + ":" + hash }

// evaluate answers one unique scenario: from the cache when possible,
// otherwise through the Evaluator, caching the result.
func evaluate(ctx context.Context, ev Evaluator, n scenario.Spec, hash string, cache CacheStore) (Outcome, bool, int64, error) {
	key := CacheKey(ev.Name(), hash)
	if cache != nil {
		if out, ok := cache.Get(key); ok {
			return out, true, 0, nil
		}
	}
	begin := time.Now()
	evl, err := ev.Evaluate(ctx, n)
	if err != nil {
		return Outcome{}, false, evl.TrialsRun, err
	}
	out := Outcome{
		Hash:             hash,
		Spec:             n,
		Share:            n.TrackedShare(),
		Backend:          ev.Name(),
		Verdict:          evl.Verdict,
		Equitability:     evl.Equitability,
		ConvergenceBlock: evl.ConvergenceBlock,
		TrialsRun:        evl.TrialsRun,
		TrialsBudget:     evl.TrialsBudget,
		EarlyStopped:     evl.EarlyStopped,
		AchievedEps:      evl.AchievedEps,
		AchievedDelta:    evl.AchievedDelta,
		Arena:            evl.Arena,
		ElapsedMS:        float64(time.Since(begin).Microseconds()) / 1000,
	}
	if cache != nil {
		cache.Add(key, out)
	}
	return out, false, evl.TrialsRun, nil
}

// Table renders the report as an aligned text table, one scenario per
// row, fairest-relevant columns first.
func (r *Report) Table() string {
	tb := table.New("Scenario", "Protocol", "a", "E[lambda]", "Expect.", "Unfair", "Robust", "Equit.", "Cvg.", "Cache").
		AlignAll(table.Right).SetAlign(0, table.Left)
	for _, o := range r.Outcomes {
		name := o.Name
		if name == "" {
			name = o.Hash[:12]
		}
		conv := "Never"
		if o.ConvergenceBlock >= 0 {
			conv = fmt.Sprintf("%d", o.ConvergenceBlock)
		}
		hit := ""
		if o.CacheHit {
			hit = "hit"
		}
		tb.AddRow(name, o.Verdict.Protocol,
			fmt.Sprintf("%.3f", o.Share),
			fmt.Sprintf("%.4f", o.Verdict.MeanLambda),
			o.Verdict.ExpectationalFair,
			fmt.Sprintf("%.3f", o.Verdict.UnfairProbability),
			o.Verdict.RobustFair,
			fmt.Sprintf("%.4f", o.Equitability),
			conv, hit)
	}
	return tb.String()
}

// JSON renders the full report, outcomes and stats, as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Summary renders the sweep statistics as one line.
func (r *Report) Summary() string {
	s := r.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "%d scenarios: %d computed, %d cache hits, %d trials, %.1fms wall (%.2f scenarios/s)",
		s.Scenarios, s.Computed, s.CacheHits, s.TrialsRun, s.WallMS, s.ScenariosPerSec())
	return b.String()
}
