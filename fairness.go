// Package fairness is the public facade of the blockchain-incentive
// fairness library, a from-scratch Go reproduction of
//
//	Huang, Tang, Cong, Lim, Xu.
//	"Do the Rich Get Richer? Fairness Analysis for Blockchain Incentives."
//	SIGMOD 2021.
//
// It exposes the incentive protocols the paper analyses (PoW, ML-PoS,
// SL-PoS, C-PoS, the FSL-PoS treatment and the Section 6.4 extensions),
// the two fairness notions (expectational and (ε,δ)-robust fairness), the
// theory calculators of Theorems 4.2/4.3/4.10, and a context-aware
// evaluation Engine with pluggable backends (Monte-Carlo sampling,
// closed-form theory, block-level chain simulation) and pluggable result
// caches (in-memory LRU, cross-process disk store).
//
// Quick start:
//
//	eng := fairness.NewEngine()
//	verdict, err := eng.Evaluate(ctx, fairness.NewMLPoS(0.01),
//		fairness.TwoMiner(0.2), fairness.WithTrials(1000), fairness.WithBlocks(5000))
//	fmt.Println(verdict) // expectationally fair, not robustly fair
//
// An Engine answers every question: Evaluate for one protocol instance,
// EvaluateScenario, Sweep and Stream for declarative scenarios.
// MonteCarloContext returns the raw per-checkpoint λ samples, and Attack
// groups the closed-form attack calculators.
//
// The internal packages carry the substrates: internal/chainsim is a
// block-level blockchain simulator with real SHA-256 puzzles standing in
// for the paper's Geth/Qtum/NXT deployments, and internal/experiments
// regenerates every figure and table of the evaluation section (see
// cmd/fairsim).
package fairness

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/arena"
	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/jobs"
	"repro/internal/montecarlo"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Re-exported core types. See the internal packages for full method docs.
type (
	// Protocol advances a mining game by one block or epoch.
	Protocol = protocol.Protocol
	// State is the mutable state of one mining game.
	State = game.State
	// Params carries the (ε, δ) of robust fairness.
	Params = core.Params
	// Verdict summarises the empirical fairness of one protocol run.
	Verdict = core.Verdict
	// Result holds per-checkpoint λ samples from a Monte-Carlo run.
	Result = montecarlo.Result
	// MonteCarloConfig configures a Monte-Carlo run.
	MonteCarloConfig = montecarlo.Config
	// Rand is the deterministic random number generator.
	Rand = rng.Rand
	// Scenario is a declarative fairness scenario (protocol + params,
	// stake split, horizon, trials, fairness (ε, δ)), JSON-encodable and
	// content-hashable.
	Scenario = scenario.Spec
	// ScenarioGrid declares a sweep over scenario axes; Expand turns it
	// into a concrete scenario list.
	ScenarioGrid = scenario.Grid
	// Adversary is a Scenario's strategic-deviation block: one miner
	// running a registered attack strategy (see StrategyNames; "selfish",
	// "selfish-delay" on PoW, "withhold" on the compounding PoS models).
	Adversary = scenario.Adversary
	// Network is a Scenario's propagation block: a per-height fork rate
	// bending rewards toward large miners à la Sakurai & Shudo (PoW
	// only).
	Network = scenario.Network
	// SweepOptions configures a scenario sweep (workers, result cache,
	// streaming callback).
	SweepOptions = sweep.Options
	// SweepOutcome is the fairness evaluation of one scenario.
	SweepOutcome = sweep.Outcome
	// SweepReport aggregates a sweep's outcomes and throughput stats.
	SweepReport = sweep.Report
	// SweepCache is the in-memory LRU result cache shared across sweeps.
	SweepCache = sweep.Cache
	// CacheStore is the pluggable result-cache interface of the Engine:
	// NewSweepCache's LRU and NewDiskCache's cross-process store both
	// implement it.
	CacheStore = sweep.CacheStore
	// DiskCache is the content-addressed disk result cache; warm results
	// survive restarts and may be shared across processes.
	DiskCache = sweep.DiskCache
	// Evaluator is the pluggable scenario backend interface of the
	// Engine; see MonteCarloBackend, TheoryBackend and ChainSimBackend.
	Evaluator = sweep.Evaluator
	// Evaluation is the backend-independent result an Evaluator returns.
	Evaluation = sweep.Evaluation
	// AdaptiveTrials configures early-stopping Monte-Carlo evaluation;
	// see WithAdaptiveTrials and MonteCarloAdaptiveBackend.
	AdaptiveTrials = sweep.AdaptiveTrials
	// ClusterOptions configures distributed sweeps over fairnessd worker
	// nodes; pass it to WithCluster. See internal/cluster for the shard
	// protocol and failure semantics.
	ClusterOptions = cluster.Options
	// ClusterHealth is one worker's probed /v1/healthz view.
	ClusterHealth = cluster.Health
	// ClusterRegistry is the coordinator-side worker membership table of
	// a self-organizing cluster: workers register themselves (fairnessd
	// -register), heartbeat to stay live, and deregister on shutdown;
	// shard sizes adapt to the per-worker throughput it tracks. Serve it
	// over HTTP with NewClusterRegistryServer and pass it to runs via
	// ClusterOptions.Registry.
	ClusterRegistry = cluster.Registry
	// ClusterRegistryServer is the registry's HTTP face: /v1/register,
	// /v1/deregister and a coordinator /v1/healthz.
	ClusterRegistryServer = cluster.RegistryServer
	// ClusterMember is one registered worker's membership view.
	ClusterMember = cluster.Member
	// ClusterRegistrar is the worker-side registration client: register,
	// heartbeat, deregister on context end (what fairnessd -register
	// runs).
	ClusterRegistrar = cluster.Registrar
	// ClusterDispatchGate arbitrates shard dispatch across concurrent
	// cluster runs — ClusterOptions.Gate. The job service's fair-share
	// scheduler hands one to every job it runs.
	ClusterDispatchGate = cluster.DispatchGate
	// JobManager is the multi-tenant job service (internal/jobs): named
	// sweep jobs from many tenants multiplexed onto one execution
	// substrate under weighted fair-share scheduling, with per-tenant
	// quotas, cache namespaces and retention of finished results.
	JobManager = jobs.Manager
	// JobConfig tunes a JobManager (runner, capacity, quotas, weights,
	// retention, cache, telemetry).
	JobConfig = jobs.Config
	// JobSweepRunner executes one job's scenario list under a dispatch
	// gate; see JobClusterRunner and JobLocalRunner.
	JobSweepRunner = jobs.SweepRunner
	// JobScheduler is the manager's stride-based fair-share arbiter.
	JobScheduler = jobs.Scheduler
	// JobSubmitRequest is one named in-process sweep submission.
	JobSubmitRequest = jobs.SubmitRequest
	// JobSubmitBody is the POST /v1/jobs wire format (spec as a grid or
	// scenario array, like fairsweep -spec files).
	JobSubmitBody = jobs.SubmitBody
	// JobInfo is one job's externally visible lifecycle snapshot.
	JobInfo = jobs.JobInfo
	// JobState is a job's lifecycle position; see JobStateQueued et al.
	JobState = jobs.JobState
	// JobResultsPage is one page of a finished job's merged outcomes
	// with an opaque continuation token.
	JobResultsPage = jobs.ResultsPage
	// JobServer is the /v1/jobs HTTP face of a JobManager; mount it with
	// WithJobServer or Register.
	JobServer = jobs.Server
	// JobClient is the /v1/jobs HTTP client — what fairctl submit/jobs/
	// cancel/results and cmd/fairload drive.
	JobClient = jobs.Client
)

// Job lifecycle states: queued → running → done/failed/cancelled.
const (
	JobStateQueued    = jobs.StateQueued
	JobStateRunning   = jobs.StateRunning
	JobStateDone      = jobs.StateDone
	JobStateFailed    = jobs.StateFailed
	JobStateCancelled = jobs.StateCancelled
)

// Job service errors, mapped onto HTTP statuses by the JobServer.
var (
	ErrJobQuota       = jobs.ErrQuota
	ErrJobUnknown     = jobs.ErrUnknownJob
	ErrJobNotFinished = jobs.ErrNotFinished
	ErrJobPageToken   = jobs.ErrPageToken
	ErrJobsClosed     = jobs.ErrClosed
)

// NewJobManager builds the multi-tenant job service over cfg.Runner.
// Close it to cancel live jobs and join their goroutines.
func NewJobManager(cfg JobConfig) (*JobManager, error) { return jobs.NewManager(cfg) }

// NewJobServer wraps a JobManager in its /v1/jobs HTTP endpoints;
// mount them with Register(mux).
func NewJobServer(m *JobManager) *JobServer { return jobs.NewServer(m) }

// WithJobServer mounts a manager's /v1/jobs API on mux and returns the
// server — the one-liner fairnessd -jobs and embedding applications use.
func WithJobServer(mux *http.ServeMux, m *JobManager) *JobServer {
	s := jobs.NewServer(m)
	s.Register(mux)
	return s
}

// NewJobClient returns a client for one job server's /v1/jobs API
// (base "host:port" or a full URL).
func NewJobClient(base string) *JobClient { return jobs.NewClient(base) }

// JobClusterRunner executes each job as one distributed cluster run
// over one worker pool described by base (its Gate and Cache are
// overridden per job). The jobs share that pool: its keep-alive
// connections (with base.HTTPClient nil, a pool of the runner's own),
// its membership and each worker's measured rate, so a static worker is
// probed once rather than once per job and shard sizes carry over
// between jobs. Workers compute a job's shards without their own cache,
// so each outcome is written once, into the tenant's namespace of the
// job manager's cache.
func JobClusterRunner(base ClusterOptions) JobSweepRunner { return jobs.ClusterRunner(base) }

// JobLocalRunner executes jobs in-process with sweep options opts,
// pacing through the fair-share gate in chunks of at most chunk
// scenarios (0 = 4) so concurrent tenants interleave without a cluster.
func JobLocalRunner(opts SweepOptions, chunk int) JobSweepRunner {
	return jobs.LocalRunner(opts, chunk)
}

// JobTenantCache namespaces a base result cache for one tenant — the
// isolation the JobManager applies around JobConfig.Cache.
func JobTenantCache(tenant string, base CacheStore) CacheStore {
	return jobs.TenantCache(tenant, base)
}

type (
	// Capabilities declares which scenario features — protocols,
	// withholding, adversary and network blocks — an Evaluator backend
	// covers; see Engine.Capabilities and BackendCapabilities.
	Capabilities = sweep.Capabilities
	// CapabilityError is the typed refusal an Evaluator returns for a
	// scenario feature outside its coverage. It unwraps to ErrBackend;
	// errors.As exposes the exact backend/feature/protocol fields.
	CapabilityError = sweep.CapabilityError
	// MetricsRegistry is the dependency-free metrics registry of the
	// telemetry layer: counters, gauges and histograms with exact
	// snapshot semantics, exposable in Prometheus text format. Wire one
	// into an Engine with WithTelemetry; every Engine without one meters
	// itself on a private registry (Engine.Metrics).
	MetricsRegistry = telemetry.Registry
	// MetricsCounter, MetricsGauge and MetricsHistogram are the handle
	// types a MetricsRegistry hands out.
	MetricsCounter   = telemetry.Counter
	MetricsGauge     = telemetry.Gauge
	MetricsHistogram = telemetry.Histogram
	// Tracer is the one span sink: it holds the spans in flight and a
	// ring of the 4096 most recently completed ones, which TracesHandler
	// serves, and writes each span as NDJSON span_start/span_end events
	// when built with a writer. An engine's spans are a sweep span with
	// one scenario span per unique scenario (cache state on its end),
	// and in cluster mode the shard lifecycle as dispatch spans (one per
	// claim, ending merged or requeued, with any quarantine).
	Tracer = telemetry.Tracer
	// SpanContext identifies one span in one distributed trace — the
	// value the X-Fairness-Trace header carries across process hops.
	SpanContext = telemetry.SpanContext
	// Span is one timed operation in a trace; see StartSpan.
	Span = telemetry.Span
	// SpanRecord is one span as a Tracer holds it and GET /v1/traces
	// serves it.
	SpanRecord = telemetry.SpanRecord
	// SpanNode and SpanTree are the assembled causal view of one trace;
	// see BuildSpanTree.
	SpanNode = telemetry.SpanNode
	SpanTree = telemetry.SpanTree
)

// TraceHeader is the HTTP header propagating a span context across
// cluster hops ("<trace_id>-<span_id>").
const TraceHeader = telemetry.TraceHeader

// DefaultParams is the paper's evaluation setting: ε = 0.1, δ = 0.1.
var DefaultParams = core.DefaultParams

// ErrBackend reports a scenario outside the selected Evaluator backend's
// coverage (e.g. asking the theory backend about a protocol the paper
// proves no bound for).
var ErrBackend = sweep.ErrBackend

// Cluster-mode errors: a distributed sweep with no reachable worker, and
// a worker whose configured backend differs from the coordinator's.
var (
	ErrNoClusterWorkers       = cluster.ErrNoWorkers
	ErrClusterBackendMismatch = cluster.ErrBackendMismatch
)

// ClusterStatus probes every worker's /v1/healthz concurrently — the
// placement/diagnostics view fairctl status renders, including the
// per-worker shard counters (claimed/in flight/done/streamed) and
// measured scenarios/sec behind adaptive shard sizing.
func ClusterStatus(ctx context.Context, workers []string) []ClusterHealth {
	return cluster.Status(ctx, workers, nil, 0)
}

// NewClusterRegistry builds a worker registry for a self-organizing
// cluster expecting the named backend ("" = montecarlo); ttl is the
// membership lease workers must heartbeat within (0 = 15s).
func NewClusterRegistry(backend string, ttl time.Duration) *ClusterRegistry {
	return cluster.NewRegistry(backend, ttl)
}

// NewClusterRegistryServer wraps a registry in its HTTP endpoints;
// mount them with Register(mux).
func NewClusterRegistryServer(reg *ClusterRegistry) *ClusterRegistryServer {
	return cluster.NewRegistryServer(reg)
}

// NewPoW returns the Proof-of-Work incentive model with block reward w
// (Section 2.1). Fair in both senses for long horizons.
func NewPoW(w float64) Protocol { return protocol.NewPoW(w) }

// NewMLPoS returns the multi-lottery PoS model (Qtum/Blackcoin, Section
// 2.2) with block reward w. Expectationally fair; robustly fair only for
// small w (Theorem 4.3).
func NewMLPoS(w float64) Protocol { return protocol.NewMLPoS(w) }

// NewSLPoS returns the single-lottery PoS model (NXT, Section 2.3) with
// block reward w. Preserves neither fairness notion; converges to
// monopoly almost surely (Theorem 4.9).
func NewSLPoS(w float64) Protocol { return protocol.NewSLPoS(w) }

// NewFSLPoS returns the paper's corrected single-lottery model (Section
// 6.2): win probability proportional to stake.
func NewFSLPoS(w float64) Protocol { return protocol.NewFSLPoS(w) }

// NewCPoS returns the compound PoS model of Ethereum 2.0 (Section 2.4)
// with proposer reward w, inflation reward v and p shards per epoch.
func NewCPoS(w, v float64, p int) Protocol { return protocol.NewCPoS(w, v, p) }

// NewNEO returns the NEO model (Section 6.4): PoS election, PoW-like
// fairness because rewards are paid in a separate gas asset.
func NewNEO(w float64) Protocol { return protocol.NewNEO(w) }

// NewAlgorand returns the Algorand model (Section 6.4): inflation-only
// rewards, absolutely fair.
func NewAlgorand(v float64) Protocol { return protocol.NewAlgorand(v) }

// NewEOS returns the delegated-PoS EOS model (Section 6.4): constant
// per-delegate proposer rewards, unfair in general.
func NewEOS(w, v float64) Protocol { return protocol.NewEOS(w, v) }

// NewHybrid returns the Filecoin-style hybrid model (Section 6.4): mining
// power blends a fixed resource (weight alpha) with compounding stake.
func NewHybrid(w, alpha float64) Protocol { return protocol.NewHybrid(w, alpha) }

// TwoMiner returns the canonical two-miner allocation {a, 1−a}.
func TwoMiner(a float64) []float64 { return game.TwoMiner(a) }

// EqualShares returns n equal initial shares.
func EqualShares(n int) []float64 { return game.EqualShares(n) }

// LeaderAndPack returns the Table 1 allocation: miner 0 holds a, the
// remaining m−1 miners split 1−a equally.
func LeaderAndPack(a float64, m int) []float64 { return game.LeaderAndPack(a, m) }

// NewGame creates a mining-game state over the (auto-normalised) initial
// allocation.
func NewGame(initial []float64) (*State, error) { return game.New(initial) }

// NewGameWithWithholding creates a game applying the Section 6.3 reward
// withholding treatment with period k.
func NewGameWithWithholding(initial []float64, k int) (*State, error) {
	return game.New(initial, game.WithWithholding(k))
}

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Run advances the game n steps under protocol p.
func Run(p Protocol, st *State, r *Rand, n int) { protocol.Run(p, st, r, n) }

// MonteCarloContext runs repeated games and returns the per-checkpoint λ
// samples. Cancelling ctx stops the run promptly and returns ctx.Err().
func MonteCarloContext(ctx context.Context, p Protocol, initial []float64, cfg MonteCarloConfig) (*Result, error) {
	return montecarlo.RunContext(ctx, p, initial, cfg)
}

// Scenario sweep entry points (cmd/fairsweep is the CLI face of these).

// ExpandScenarios expands a scenario grid into its concrete, validated
// scenario list with derived per-scenario seeds.
func ExpandScenarios(g ScenarioGrid) ([]Scenario, error) { return g.Expand() }

// ScenarioHash returns the canonical content hash of a scenario — the
// sweep cache key, stable across JSON field order and input sugar.
func ScenarioHash(s Scenario) (string, error) { return s.Hash() }

// NewSweepCache returns an in-memory LRU result cache to share across
// sweeps (capacity <= 0 picks a default).
func NewSweepCache(capacity int) *SweepCache { return sweep.NewCache(capacity) }

// NewSweepCacheWithMetrics is NewSweepCache with the cache's hit, miss
// and eviction counters registered on m (labelled cache="memory"), so a
// /metrics scrape and the cache's Counters() read the same atomics.
func NewSweepCacheWithMetrics(capacity int, m *MetricsRegistry) *SweepCache {
	return sweep.NewCacheWithMetrics(capacity, m)
}

// NewDiskCache opens (creating if needed) a content-addressed disk
// result cache rooted at dir. Warm results survive restarts: a second
// process pointed at the same directory answers cached scenarios without
// recomputing them.
func NewDiskCache(dir string) (*DiskCache, error) { return sweep.NewDiskCache(dir) }

// NewDiskCacheWithMetrics is NewDiskCache with the store's hit, miss,
// write and eviction counters registered on m (labelled cache="disk").
func NewDiskCacheWithMetrics(dir string, m *MetricsRegistry) (*DiskCache, error) {
	return sweep.NewDiskCacheWithMetrics(dir, m)
}

// Telemetry layer (internal/telemetry): registries, tracing and the
// Prometheus-text endpoints every command exposes.

// NewMetricsRegistry returns an empty metrics registry — pass it to
// WithTelemetry and serve it with MetricsHandler.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// DefaultMetrics returns the process-global registry, where the
// simulation substrates (internal/montecarlo, internal/chainsim) tick
// their global trial/block/fork totals.
func DefaultMetrics() *MetricsRegistry { return telemetry.Default() }

// NewTracer returns a Tracer that holds spans for TracesHandler and,
// when w is non-nil, also writes them to w as NDJSON span events — what
// `fairsweep run -trace` and `fairctl run -trace` wire up. NewTracer(nil)
// keeps the spans in memory alone. The caller owns w's lifetime.
func NewTracer(w io.Writer) *Tracer { return telemetry.NewTracer(w) }

// NewTracerWithMetrics is NewTracer with the tracer's drop counter
// (events lost to marshal/write failures) registered as
// fairness_trace_dropped_total on m.
func NewTracerWithMetrics(w io.Writer, m *MetricsRegistry) *Tracer {
	return telemetry.NewTracerWithMetrics(w, m)
}

// StartSpan opens a span named name under parent (a zero parent mints a
// fresh trace). tr may be nil; the span still carries a propagatable
// Context.
func StartSpan(tr *Tracer, parent SpanContext, service, name string, attrs ...any) *Span {
	return telemetry.StartSpan(tr, parent, service, name, attrs...)
}

// ContextWithSpan returns a context carrying sc as the active span —
// how a caller parents an Engine run's spans under its own trace.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return telemetry.ContextWithSpan(ctx, sc)
}

// ParseTraceHeader decodes an X-Fairness-Trace header value.
func ParseTraceHeader(v string) (SpanContext, bool) { return telemetry.ParseTraceHeader(v) }

// TracesHandler serves a tracer's open and completed spans at GET
// /v1/traces (all spans, or one trace with ?trace_id=); a nil tracer
// serves empty lists.
func TracesHandler(tr *Tracer) http.Handler { return telemetry.TracesHandler(tr) }

// BuildSpanTree assembles span records fetched from any number of
// tracers into per-trace causal trees, deduplicating by span_id.
func BuildSpanTree(spans []SpanRecord) *SpanTree { return telemetry.BuildSpanTree(spans) }

// MetricsHandler serves the given registries concatenated in Prometheus
// text exposition format — the /metrics endpoint of fairnessd and the
// fairctl coordinator. Metric names must be disjoint across registries.
func MetricsHandler(regs ...*MetricsRegistry) http.Handler { return telemetry.Handler(regs...) }

// ParseMetricsText parses Prometheus text exposition into a flat
// series-id -> value map — the scrape-side inverse of MetricsHandler,
// used by `fairctl top` and the CI reconciliation checks.
func ParseMetricsText(r io.Reader) (map[string]float64, error) { return telemetry.ParseText(r) }

// MonteCarloBackend returns the reference Evaluator: deterministic
// repeated mining games through the Monte-Carlo engine (the default
// backend of every Engine).
func MonteCarloBackend() Evaluator { return &sweep.MonteCarloEvaluator{} }

// MonteCarloAdaptiveBackend returns a Monte-Carlo Evaluator with
// adaptive early stopping: each scenario's Trials is a budget, the run
// halts once the unfair-probability verdict is resolved at the
// scenario's ε/δ with total error probability a.Confidence, and the
// executed trial count — together with the achieved eps/delta
// certificate — is reported in every outcome. Zero fields of a resolve
// to the montecarlo package defaults. The evaluator's Name encodes the
// normalised rule ("montecarlo+es(...)"), so adaptive results never
// share a cache or cluster namespace with exhaustive runs.
func MonteCarloAdaptiveBackend(a AdaptiveTrials) Evaluator {
	return &sweep.MonteCarloEvaluator{Adaptive: &a}
}

// TheoryBackend returns the closed-form Evaluator built on the paper's
// theorems (4.2 exact binomial for PoW, 4.3/4.10 Azuma bounds for
// ML-PoS/C-PoS, 4.9's mean-field skeleton for SL-PoS). It runs no
// trials; scenarios outside the theory's coverage return an error.
func TheoryBackend() Evaluator { return &sweep.TheoryEvaluator{} }

// ChainSimBackend returns the block-level simulation Evaluator: real
// SHA-256 puzzles and kernel lotteries through internal/chainsim. It is
// the most faithful and most expensive backend; it covers pow, mlpos,
// slpos, fslpos and cpos.
func ChainSimBackend() Evaluator { return &sweep.ChainSimEvaluator{} }

// ArenaBackend returns the best-response equilibrium Evaluator
// (internal/arena): each scenario is read as an honest baseline game,
// every miner iteratively adopts the best response from the config's
// strategy menu until play fixes, and the outcome reports the fairness
// of the fixed point together with the equilibrium profile, per-miner
// payoffs and honest-baseline deltas (Outcome.Arena). The zero
// ArenaConfig selects each protocol's default menu. Results are a pure
// function of (spec, config): local and cluster runs merge
// bit-identically.
func ArenaBackend(cfg ArenaConfig) Evaluator { return &sweep.ArenaEvaluator{Config: cfg} }

// BackendByName maps a CLI/service backend name onto an Evaluator: ""
// and "montecarlo" select the engine's default (a nil Evaluator),
// "theory", "chainsim" and "arena" their respective backends; an
// "arena(...)" name — the Name() encoding of a configured arena —
// parses back into that configuration. Every binary's -backend flag
// resolves through this one function, so the accepted names can never
// drift apart.
func BackendByName(name string) (Evaluator, error) {
	switch name {
	case "", "montecarlo":
		return nil, nil
	case "theory":
		return TheoryBackend(), nil
	case "chainsim":
		return ChainSimBackend(), nil
	case "arena":
		return ArenaBackend(ArenaConfig{}), nil
	default:
		if strings.HasPrefix(name, "arena(") {
			ev, err := sweep.ParseArenaName(name)
			if err != nil {
				return nil, err
			}
			return ev, nil
		}
		return nil, fmt.Errorf("unknown backend %q (known: montecarlo, theory, chainsim, arena)", name)
	}
}

// BackendCapabilities returns the declared scenario coverage of a named
// backend — the machine-readable form of the README capability matrix,
// also served by fairnessd /v1/healthz.
func BackendCapabilities(name string) (Capabilities, error) {
	ev, err := BackendByName(name)
	if err != nil {
		return Capabilities{}, err
	}
	return sweep.CapabilityOf(ev), nil
}

// The attack-strategy surface: strategy-registry introspection, the
// closed-form calculators, and the best-response arena types, grouped
// under the Strategy*/Attack names.

// Canonical strategy names of the built-in registry — the values a
// Scenario's Adversary.Strategy and an ArenaCandidate.Strategy accept
// (resolution is case- and separator-insensitive).
const (
	StrategyHonest       = scenario.StrategyHonest
	StrategySelfish      = scenario.StrategySelfish
	StrategySelfishDelay = scenario.StrategySelfishDelay
	StrategyWithhold     = scenario.StrategyWithhold
)

// StrategyNames returns the sorted canonical names of every registered
// attack strategy — the open enum behind Adversary.Strategy, grid
// strategy axes and arena candidate menus.
func StrategyNames() []string { return scenario.StrategyNames() }

// Arena types (internal/arena): best-response equilibrium dynamics over
// the strategy registry. See ArenaBackend and Engine.Arena.
type (
	// ArenaConfig is the arena's strategy menu and round bound; the zero
	// value selects each protocol's default menu.
	ArenaConfig = arena.Config
	// ArenaCandidate is one menu entry: a strategy name plus the
	// parameters it consumes. Its canonical text form "name:key=val,..."
	// is what ParseStrategy reads and the -strategy CLI flags accept.
	ArenaCandidate = arena.Candidate
	// ArenaEquilibrium is the fixed point an arena evaluation reports on
	// SweepOutcome.Arena: profile, payoffs and honest-baseline payoffs.
	ArenaEquilibrium = arena.Equilibrium
	// ArenaMove is one adopted best response of the dynamics.
	ArenaMove = arena.Move
)

// ParseStrategy parses one "name:key=val,..." strategy spelling (keys
// g/gamma, d/delay, e/every) into an ArenaCandidate; ParseStrategies
// parses a semicolon-separated list. This is the single parser behind
// every -strategy flag.
func ParseStrategy(s string) (ArenaCandidate, error) { return arena.ParseCandidate(s) }

// ParseStrategies parses a semicolon-separated strategy list
// ("honest;selfish:g=0.5;withhold:e=100").
func ParseStrategies(s string) ([]ArenaCandidate, error) { return arena.ParseCandidates(s) }

// Attack groups the closed-form attack calculators — the theory twins
// of the adversary/network scenario blocks.
var Attack AttackCalculators

// AttackCalculators is the method namespace behind the package-level
// Attack variable.
type AttackCalculators struct{}

// SelfishRevenue returns the closed-form Eyal–Sirer relative revenue of
// a selfish pool with hash share alpha and network advantage gamma —
// the stationary λ of a Scenario with a selfish Adversary block.
func (AttackCalculators) SelfishRevenue(alpha, gamma float64) (float64, error) {
	return attack.SelfishMining{Alpha: alpha, Gamma: gamma}.Revenue()
}

// SelfishThreshold returns the minimum hash share above which selfish
// mining beats honest mining for a given gamma: (1−γ)/(3−2γ).
func (AttackCalculators) SelfishThreshold(gamma float64) (float64, error) {
	return attack.ProfitThreshold(gamma)
}

// ForkEffectivePowers returns each miner's per-height canonical-block
// probability under the Sakurai–Shudo fork-race model at the given fork
// rate — the effective-power correction a Network block applies to a
// PoW scenario's win probabilities.
func (AttackCalculators) ForkEffectivePowers(shares []float64, forkRate float64) ([]float64, error) {
	return attack.ForkEffectivePowers(shares, forkRate)
}

// Theory calculators (Theorems 4.2, 4.3, 4.10 and the Pólya-urn limit).

// PoWMinBlocks returns Theorem 4.2's sufficient horizon for PoW.
func PoWMinBlocks(a float64, p Params) int { return core.PoWMinBlocks(a, p) }

// MLPoSSufficient reports Theorem 4.3's sufficient condition for ML-PoS.
func MLPoSSufficient(n int, w, a float64, p Params) bool { return core.MLPoSSufficient(n, w, a, p) }

// CPoSSufficient reports Theorem 4.10's sufficient condition for C-PoS.
func CPoSSufficient(n int, w, v float64, shards int, a float64, p Params) bool {
	return core.CPoSSufficient(n, w, v, shards, a, p)
}

// MLPoSLimitFairProb returns the limiting fair-area mass of the ML-PoS
// Beta(a/w, b/w) distribution (Section 4.3).
func MLPoSLimitFairProb(a, w, eps float64) float64 { return core.MLPoSLimitFairProb(a, w, eps) }

// SLPoSWinProbTwoMiner returns the SL-PoS next-block win probability for
// a miner with stake share z (Figure 1).
func SLPoSWinProbTwoMiner(z float64) float64 { return core.SLPoSWinProbTwoMiner(z) }

// SLPoSWinProbMulti returns each miner's SL-PoS win probability for an
// arbitrary allocation (Lemma 6.1).
func SLPoSWinProbMulti(shares []float64) []float64 { return core.SLPoSWinProbMulti(shares) }

// Ranking returns the paper's overall fairness ordering, fairest first.
func Ranking() []string { return core.Ranking() }

// Equitability returns the normalised dispersion Var(λ)/(a(1−a)) of final
// reward fractions — Fanti et al.'s compounding metric for comparison
// with robust fairness (Section 7).
func Equitability(samples []float64, a float64) float64 { return core.Equitability(samples, a) }

// SLPoSMeanFieldShare returns the fluid-limit SL-PoS stake share of a
// miner starting at a after n blocks with reward w — the deterministic
// skeleton of Theorem 4.9's stochastic approximation.
func SLPoSMeanFieldShare(a, w float64, n int) float64 {
	return core.SLPoSMeanField(w).ShareAt(a, n)
}

// SLPoSHalfLife returns the mean-field number of blocks for a sub-half
// SL-PoS miner to lose half her share, or -1 within maxBlocks.
func SLPoSHalfLife(a, w float64, maxBlocks int) int {
	return core.SLPoSHalfLife(a, w, maxBlocks)
}
