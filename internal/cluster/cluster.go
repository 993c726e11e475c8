package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Cluster errors. Per-shard worker failures retry transparently; these
// surface only when the run as a whole cannot make progress.
var (
	// ErrNoWorkers reports a run with no reachable worker (and work left
	// to do after the cache pre-scan). Registry-backed runs never fail
	// with this — they wait for a worker to register instead.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrBackendMismatch reports a worker whose configured backend differs
	// from the coordinator's: silently merging outcomes computed under a
	// different evaluator would poison the report and the shared cache.
	ErrBackendMismatch = errors.New("cluster: worker backend mismatch")
	// ErrShard reports a work item that exhausted its retry budget.
	ErrShard = errors.New("cluster: shard failed")
	// errLeaseExpired marks a claim cancelled by the shard-lease
	// watchdog: the worker stopped streaming long enough to be presumed
	// stuck.
	errLeaseExpired = errors.New("cluster: shard lease expired")
	// errBadOutcome marks a claim cut at a streamed outcome that fails
	// checkOutcome: the worker answered under another backend, or for a
	// spec other than the one its hash names.
	errBadOutcome = errors.New("cluster: worker streamed a bad outcome")
)

// Scheduling defaults.
const (
	// coldShardSize is the probing shard for a worker with no throughput
	// history: small, so one slow worker cannot strand a big slice of
	// the grid behind a single claim.
	coldShardSize = 2
	// defaultTargetShardTime is the adaptive-sizing target: each shard
	// should keep its worker busy for about this long.
	defaultTargetShardTime = 1500 * time.Millisecond
	// defaultMaxShardSize caps adaptive shards; very fast (or cache-hot)
	// workers batch up to this many scenarios per claim.
	defaultMaxShardSize = 128
	// defaultLeaseTTL bounds stream inactivity per claimed shard: a
	// worker that streams nothing for this long loses the shard.
	defaultLeaseTTL = 5 * time.Minute
	// supervisorInterval paces the membership re-scan that spawns worker
	// loops for newly-registered workers.
	supervisorInterval = 100 * time.Millisecond
)

// Options configures a distributed sweep.
type Options struct {
	// Workers lists static fairnessd base URLs ("host:port" or full URL)
	// seeded into the pool after a health probe. With a Registry this
	// list is optional.
	Workers []string
	// Registry, when non-nil, makes the pool self-organizing: live
	// registered workers (plus any static Workers seeds) are eligible,
	// workers may register or drop out mid-run, and a run that finds no
	// worker WAITS for one to register instead of failing with
	// ErrNoWorkers. Serve it over HTTP with a RegistryServer to accept
	// fairnessd -register workers.
	Registry *Registry
	// Backend is the evaluator the workers are expected to run
	// ("" = montecarlo). Every worker's /v1/healthz must report the same
	// backend, or the run fails with ErrBackendMismatch; the name also
	// namespaces shared-cache keys exactly as a local sweep would.
	Backend string
	// Cache, when non-nil, is consulted before scheduling — work items
	// already present are served locally and never leave the coordinator
	// — and filled as worker outcomes arrive. Point it at the same
	// content-addressed directory the workers share and the whole
	// cluster warm-starts for free.
	Cache sweep.CacheStore
	// ShardSize pins the number of work items per shard. 0 (the
	// default) sizes shards adaptively per worker: a worker with no
	// history gets a small probing shard, and from then on each claim
	// targets TargetShardTime of work at the worker's EWMA
	// scenarios/sec — slow or cold-cache workers get small shards, fast
	// workers get batched claims.
	ShardSize int
	// TargetShardTime is the adaptive-sizing wall-time target per shard
	// (0 = 1.5s).
	TargetShardTime time.Duration
	// MaxShardSize caps adaptive shards (0 = 128).
	MaxShardSize int
	// MaxAttempts caps how many times one work item is tried before the
	// run fails (0 = 3). Attempts may land on different workers.
	MaxAttempts int
	// BackoffBase and BackoffMax shape a failing worker's exponential
	// retry delay (defaults 100ms and 2s). Requeued work is immediately
	// stealable by other workers — only the worker that failed backs
	// off.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// ProbeTimeout bounds each /v1/healthz liveness probe (0 = 5s). It
	// is deliberately independent of AckTimeout: liveness probes answer
	// "is this worker alive?", and a worker slow under load must not be
	// declared dead just because fast-path requests are impatient.
	ProbeTimeout time.Duration
	// AckTimeout bounds shard-ack posts (0 = 2s).
	AckTimeout time.Duration
	// LeaseTTL is each claimed shard's stream-inactivity lease, renewed
	// by every outcome line (0 = 5m). When it expires the claim is cut,
	// the undelivered remainder re-enters the queue, and the stalled
	// worker is quarantined. Size it above the longest single-scenario
	// compute time.
	LeaseTTL time.Duration
	// HTTPClient overrides the transport (nil = a client with no overall
	// timeout, since shard streams are long-lived, over a private
	// connection pool that the run drains when it ends). Runs that share
	// one client keep their worker connections alive between them, as
	// jobs.ClusterRunner does.
	HTTPClient *http.Client
	// OnOutcome, when non-nil, streams every per-position outcome as it
	// is merged (calls are serialised; order is scheduling-dependent,
	// exactly like a local sweep's observer).
	OnOutcome func(sweep.Outcome)
	// Metrics, when non-nil, receives the coordinator-side
	// fairness_cluster_* counters and gauges (shard lifecycle, streamed,
	// rejected and delivered outcomes, local cache hits, lease expiries,
	// quarantines, live workers, per-worker rate EWMAs). Counters are
	// cumulative across runs sharing the registry. Engine-driven runs
	// inherit the engine's registry automatically.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, receives the run's coordinator spans as
	// span_start/span_end NDJSON events: the sweep span and its pool_wait,
	// dispatch and merge children (worker-side eval spans are parented
	// under dispatch via the X-Fairness-Trace header). A dispatch span
	// that cost its worker a quarantine ends with quarantine=<reason>.
	Tracer *telemetry.Tracer
	// Recorder, when non-nil, holds the run's coordinator spans: open
	// ones while they are in flight, completed ones in a bounded
	// in-memory ring. GET /v1/traces serves both; `fairctl trace`
	// assembles the completed ones into a span tree and `fairctl watch`
	// renders the open ones. The run's trace roots under the span context
	// carried by ctx (telemetry.ContextWithSpan), so an engine- or
	// job-driven run joins its caller's trace; without one it mints a
	// fresh trace_id.
	Recorder *telemetry.FlightRecorder
	// Gate, when non-nil, is consulted before every shard is cut: the
	// worker loop asks for `want` work items and receives permission for
	// `granted` (possibly fewer), holding the grant until the shard
	// completes or its remainder is requeued. A gate shared across
	// concurrent Runs decides whose shard dispatches next — this is how
	// the multi-tenant job scheduler interleaves jobs at true
	// shard-dispatch granularity without touching merge semantics.
	Gate DispatchGate
}

// DispatchGate arbitrates shard dispatch across concurrent runs.
// Acquire blocks until the caller may dispatch up to granted work items
// (1 <= granted <= want), the gate is closed for this run (granted 0),
// or ctx is cancelled. The returned release must be called exactly once
// when the granted items are no longer in flight — after the shard is
// merged and acked, or after its remainder is requeued.
type DispatchGate interface {
	Acquire(ctx context.Context, want int) (granted int, release func(), err error)
}

// Health is one worker's /v1/healthz view, as probed by the coordinator
// (and surfaced by `fairctl status`).
type Health struct {
	URL              string  `json:"url"`
	OK               bool    `json:"ok"`
	Error            string  `json:"error,omitempty"`
	Status           string  `json:"status"`
	Backend          string  `json:"backend"`
	Cache            string  `json:"cache"`
	CacheHits        *uint64 `json:"cache_hits,omitempty"`
	CacheMisses      *uint64 `json:"cache_misses,omitempty"`
	ShardsClaimed    int64   `json:"shards_claimed"`
	ShardsInFlight   int64   `json:"shards_in_flight"`
	ShardsDone       int64   `json:"shards_done"`
	ShardsAcked      int64   `json:"shards_acked"`
	OutcomesStreamed int64   `json:"outcomes_streamed"`
	ScenariosPerSec  float64 `json:"scenarios_per_sec"`
	UptimeMS         int64   `json:"uptime_ms"`
}

// NormalizeWorkerURL turns "host:port" or a full URL into a canonical
// scheme-qualified base URL without a trailing slash.
func NormalizeWorkerURL(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return s
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// Probe fetches one worker's /v1/healthz.
func Probe(ctx context.Context, client *http.Client, url string, timeout time.Duration) Health {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	url = NormalizeWorkerURL(url)
	h := Health{URL: url}
	probeCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, url+"/v1/healthz", nil)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	resp, err := client.Do(req)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.Error = fmt.Sprintf("healthz status %d", resp.StatusCode)
		return h
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h); err != nil {
		h.Error = err.Error()
		return h
	}
	h.URL = url // healthz bodies don't carry the URL; keep the probe's
	h.OK = h.Status == "ok"
	if !h.OK && h.Error == "" {
		h.Error = fmt.Sprintf("status %q", h.Status)
	}
	return h
}

// Status probes every worker concurrently — the `fairctl status` engine.
func Status(ctx context.Context, workers []string, client *http.Client, timeout time.Duration) []Health {
	out := make([]Health, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w string) {
			defer wg.Done()
			out[i] = Probe(ctx, client, w, timeout)
		}(i, w)
	}
	wg.Wait()
	return out
}

// ShardID names a shard after its content: the SHA-256 of the scenario
// hashes it carries. Identical shards claim under identical IDs on every
// worker and every retry, which is what makes reassignment idempotent.
func ShardID(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// workItem is one unique scenario awaiting distribution.
type workItem struct {
	hash string
	spec scenario.Spec
}

// task is one cut shard: a batch of work items under a content id.
type task struct {
	id     string
	hashes []string
	specs  []scenario.Spec
}

// newTask assembles a shard from a work-item batch.
func newTask(items []workItem) *task {
	hs := make([]string, len(items))
	sp := make([]scenario.Spec, len(items))
	for i, it := range items {
		hs[i] = it.hash
		sp[i] = it.spec
	}
	return &task{id: ShardID(hs), hashes: hs, specs: sp}
}

// adaptiveShardSize picks a shard size from a worker's throughput
// estimate: cold workers get a small probing shard, known workers get
// targetTime's worth of scenarios, capped at maxSize.
func adaptiveShardSize(rate float64, targetTime time.Duration, maxSize int) int {
	if rate <= 0 {
		return coldShardSize
	}
	n := int(rate * targetTime.Seconds())
	if n < 1 {
		n = 1
	}
	if n > maxSize {
		n = maxSize
	}
	return n
}

// Run distributes the scenario list across the worker pool and merges
// the workers' streams into one report with local-sweep semantics:
// outcomes in input order, identical scenarios computed once and fanned
// out to every position, evaluation errors failing the run, and
// cancellation returning the partial report with ctx.Err(). Completed
// outcomes are bit-identical to sweep.RunContext's for the same list —
// only the timing/cache bookkeeping (ElapsedMS, CacheHit, Stats) can
// differ, since those record where and how the work actually ran. This
// holds across every scheduling accident: a worker registering mid-run,
// a lease expiring mid-shard, a shard reassigned after a crash.
func Run(ctx context.Context, specs []scenario.Spec, opts Options) (*sweep.Report, error) {
	start := time.Now()

	// Prologue mirrors the local sweep runner: validate, normalise, hash,
	// group positions by content hash.
	norm := make([]scenario.Spec, len(specs))
	hashes := make([]string, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: scenario %d (%s): %w", i, s.Name, err)
		}
		norm[i] = s.Normalized()
		norm[i].Name = ""
		h, err := s.Hash()
		if err != nil {
			return nil, fmt.Errorf("cluster: scenario %d (%s): %w", i, s.Name, err)
		}
		hashes[i] = h
	}
	groups := make(map[string][]int, len(specs))
	uniq := make([]string, 0, len(specs))
	for i, h := range hashes {
		if _, seen := groups[h]; !seen {
			uniq = append(uniq, h)
		}
		groups[h] = append(groups[h], i)
	}

	backend := opts.Backend
	if backend == "" {
		backend = "montecarlo"
	}
	reg := opts.Registry
	registryMode := reg != nil
	if reg == nil {
		reg = NewRegistry(backend, 0)
	} else if err := reg.requireBackend(backend); err != nil {
		return nil, err
	}
	client := opts.HTTPClient
	if client == nil {
		// A private connection pool, drained when the run ends: a
		// coordinator must not leave keep-alive goroutines behind.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		defer tr.CloseIdleConnections()
		client = &http.Client{Transport: tr}
	}

	rep := &sweep.Report{Outcomes: make([]sweep.Outcome, len(specs))}
	rep.Stats.Scenarios = len(specs)

	met := newMeters(opts.Metrics)

	// The run's trace: one sweep span covering the whole distributed run,
	// rooted under the caller's span (a job's root span, via ctx) or a
	// fresh trace. Every shard dispatch and gate wait below is a child.
	bag := telemetry.BaggageFrom(ctx)
	spanAttrs := []any{"backend", backend, "scenarios", len(specs), "unique", len(uniq),
		"registry_mode", registryMode, "static_workers", len(opts.Workers)}
	if v, ok := bag["tenant"]; ok {
		spanAttrs = append(spanAttrs, "tenant", v)
	}
	if v, ok := bag["job"]; ok {
		spanAttrs = append(spanAttrs, "job", v)
	}
	runSpan := telemetry.StartSpan(opts.Tracer, opts.Recorder,
		telemetry.SpanContextFrom(ctx), "coordinator", "sweep", spanAttrs...)

	var (
		mu        sync.Mutex // serialises merging and OnOutcome
		computed  int
		trialsRun int64
		delivered = make(map[string]bool, len(uniq))
	)
	// deliver merges one unique scenario's outcome, fanning it out to
	// every position that requested it with the local runner's
	// position-level cache semantics: the first position carries the
	// compute cost, the rest are in-sweep deduplication hits. Delivery
	// is idempotent by content hash — the property that keeps the merged
	// report bit-identical under requeues and lease reassignment.
	deliver := func(h string, base sweep.Outcome, hit bool) bool {
		mu.Lock()
		defer mu.Unlock()
		if delivered[h] {
			return false
		}
		delivered[h] = true
		met.delivered.Inc()
		if !hit {
			computed++
			if opts.Cache != nil {
				// Fill the coordinator-side cache exactly as the local
				// runner would: the canonical, name-free outcome. (In a run
				// without a tenant, a worker sharing the cache dir already
				// wrote it and the atomic store makes the rewrite harmless;
				// a job's workers skip their cache, so this is its only
				// write.)
				c := base
				c.Name = ""
				opts.Cache.Add(sweep.CacheKey(backend, h), c)
			}
		}
		for j, idx := range groups[h] {
			o := base
			o.Name = specs[idx].Name
			o.CacheHit = hit || j > 0
			if o.CacheHit {
				o.ElapsedMS = 0
			}
			rep.Outcomes[idx] = o
			if opts.OnOutcome != nil {
				opts.OnOutcome(o)
			}
		}
		return true
	}

	// Cache-aware scheduling: work items already in the shared store are
	// served locally and never shipped to a worker.
	items := make([]workItem, 0, len(uniq))
	localHits := 0
	for _, h := range uniq {
		if opts.Cache != nil {
			if out, ok := opts.Cache.Get(sweep.CacheKey(backend, h)); ok {
				deliver(h, out, true)
				localHits++
				continue
			}
		}
		items = append(items, workItem{hash: h, spec: norm[groups[h][0]]})
	}
	met.localHits.Add(int64(localHits))

	if len(items) > 0 {
		run := clusterRun{
			backend:      backend,
			met:          met,
			span:         runSpan.Context(),
			labels:       shardLabels(bag),
			registryMode: registryMode,
			maxAttempts:  valueOr(opts.MaxAttempts, 3),
			backoffBase:  durationOr(opts.BackoffBase, 100*time.Millisecond),
			backoffMax:   durationOr(opts.BackoffMax, 2*time.Second),
			probeTimeout: durationOr(opts.ProbeTimeout, 5*time.Second),
			ackTimeout:   durationOr(opts.AckTimeout, 2*time.Second),
			lease:        durationOr(opts.LeaseTTL, defaultLeaseTTL),
			client:       client,
			deliver:      deliver,
			isDelivered: func(h string) bool {
				mu.Lock()
				defer mu.Unlock()
				return delivered[h]
			},
			addTrials: func(n int64) { mu.Lock(); trialsRun += n; mu.Unlock() },
		}
		// The gate sees the sweep span, so its waits parent under it.
		sctx := telemetry.ContextWithSpan(ctx, runSpan.Context())
		if err := runScheduler(sctx, items, opts, run, reg); err != nil {
			if ctx.Err() != nil {
				// Partial report, local-sweep cancellation semantics.
				mu.Lock()
				rep.Partial = true
				filled := 0
				for _, o := range rep.Outcomes {
					if o.Hash != "" {
						filled++
					}
				}
				rep.Stats.Computed = computed
				rep.Stats.CacheHits = filled - computed
				rep.Stats.TrialsRun = trialsRun
				mu.Unlock()
				rep.Stats.WallMS = float64(time.Since(start).Microseconds()) / 1000
				runSpan.End("partial", true, "computed", rep.Stats.Computed,
					"cache_hits", rep.Stats.CacheHits, "local_cache_hits", localHits,
					"trials_run", rep.Stats.TrialsRun, "wall_ms", rep.Stats.WallMS)
				return rep, ctx.Err()
			}
			runSpan.End("error", err.Error())
			return nil, err
		}
	}

	// The merge stage: final aggregation of the streamed outcomes into
	// the report's statistics. Per-outcome merging happened inline as the
	// streams arrived (inside each dispatch span); this span covers the
	// epilogue that seals the report.
	mergeSpan := telemetry.StartSpan(opts.Tracer, opts.Recorder,
		runSpan.Context(), "coordinator", "merge", "unique", len(uniq))
	mu.Lock()
	rep.Stats.Computed = computed
	rep.Stats.TrialsRun = trialsRun
	mu.Unlock()
	rep.Stats.CacheHits = len(specs) - rep.Stats.Computed
	rep.Stats.WallMS = float64(time.Since(start).Microseconds()) / 1000
	mergeSpan.End("computed", rep.Stats.Computed, "cache_hits", rep.Stats.CacheHits)
	runSpan.End("computed", rep.Stats.Computed, "cache_hits", rep.Stats.CacheHits,
		"local_cache_hits", localHits, "trials_run", rep.Stats.TrialsRun,
		"wall_ms", rep.Stats.WallMS)
	return rep, nil
}

// meters are a run's fairness_cluster_* series. They register when the
// run starts, so a coordinator still waiting for its first worker
// already exposes them. A nil registry yields detached handles, so an
// uninstrumented run pays only uncontended atomic adds.
type meters struct {
	claimed, acked, requeued *telemetry.Counter
	streamed, delivered      *telemetry.Counter
	rejected, localHits      *telemetry.Counter
	workers                  *telemetry.Gauge
}

func newMeters(m *telemetry.Registry) *meters {
	return &meters{
		claimed:   m.Counter("fairness_cluster_shards_claimed_total"),
		acked:     m.Counter("fairness_cluster_shards_acked_total"),
		requeued:  m.Counter("fairness_cluster_shards_requeued_total"),
		streamed:  m.Counter("fairness_cluster_outcomes_streamed_total"),
		delivered: m.Counter("fairness_cluster_delivered_total"),
		rejected:  m.Counter("fairness_cluster_outcomes_rejected_total"),
		localHits: m.Counter("fairness_cluster_local_cache_hits_total"),
		workers:   m.Gauge("fairness_cluster_workers"),
	}
}

// shardLabels extracts the shippable trace baggage (tenant, job) that
// rides each shard request so worker-side spans and pprof profiles can
// slice by tenant.
func shardLabels(bag map[string]string) map[string]string {
	var out map[string]string
	for _, k := range [...]string{"tenant", "job"} {
		if v, ok := bag[k]; ok && v != "" {
			if out == nil {
				out = make(map[string]string, 2)
			}
			out[k] = v
		}
	}
	return out
}

// valueOr and durationOr resolve zero-means-default knobs.
func valueOr(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func durationOr(v, def time.Duration) time.Duration {
	if v <= 0 {
		return def
	}
	return v
}

// clusterRun carries the resolved knobs and merge hooks into the
// scheduler.
type clusterRun struct {
	backend string
	met     *meters
	// span is the run's sweep-span context: the parent of every
	// pool_wait/dispatch span, and (via the X-Fairness-Trace header) of
	// the workers' eval spans. labels is the shippable baggage (tenant,
	// job) stamped on shard requests.
	span         telemetry.SpanContext
	labels       map[string]string
	registryMode bool
	maxAttempts  int
	backoffBase  time.Duration
	backoffMax   time.Duration
	probeTimeout time.Duration
	ackTimeout   time.Duration
	lease        time.Duration
	client       *http.Client
	deliver      func(h string, base sweep.Outcome, hit bool) bool
	isDelivered  func(h string) bool
	addTrials    func(int64)
}

// sched is the shared scheduling state: one queue of undelivered work
// items, one loop per live worker cutting adaptively-sized shards off
// the head.
type sched struct {
	opts Options
	run  clusterRun
	reg  *Registry

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []workItem
	outstanding int            // items currently held by in-flight claims
	attempts    map[string]int // per-item failure counts
	loops       map[string]bool
	liveLoops   int
	finished    bool
	failed      error

	runCtx  context.Context
	runDone chan struct{}
	wg      sync.WaitGroup
}

// fail records the first terminal error and wakes everyone.
func (s *sched) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// runScheduler drives the dynamic worker pool to completion: seed the
// static workers, spawn a loop per live member (and per member that
// registers later), and wait until every work item is delivered or the
// run fails.
func runScheduler(ctx context.Context, items []workItem, opts Options,
	run clusterRun, reg *Registry) error {
	// Seed static workers: drop unreachable ones, reject misconfigured
	// ones loudly.
	urls := make([]string, 0, len(opts.Workers))
	for _, w := range opts.Workers {
		if u := NormalizeWorkerURL(w); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) > 0 {
		for _, h := range Status(ctx, urls, run.client, run.probeTimeout) {
			if !h.OK {
				continue
			}
			if h.Backend != "" && h.Backend != run.backend {
				return fmt.Errorf("%w: %s runs %q, coordinator expects %q",
					ErrBackendMismatch, h.URL, h.Backend, run.backend)
			}
			reg.addStatic(h.URL, run.backend)
		}
	}
	if !run.registryMode && len(reg.Live()) == 0 {
		return fmt.Errorf("%w: none of %d configured workers answered /v1/healthz", ErrNoWorkers, len(urls))
	}

	runCtx, runCancel := context.WithCancel(ctx)
	defer runCancel()
	s := &sched{
		opts:     opts,
		run:      run,
		reg:      reg,
		queue:    items,
		attempts: make(map[string]int, len(items)),
		loops:    make(map[string]bool),
		runCtx:   runCtx,
		runDone:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)

	// Cancellation watcher: a dead context is a terminal failure that
	// wakes the waiter and every idle loop.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-ctx.Done():
			s.fail(ctx.Err())
		case <-s.runDone:
		}
	}()

	// Supervisor: keep one loop running per live member. Registration
	// signals and a coarse ticker both trigger a re-scan, so a worker
	// registering mid-run joins within milliseconds. Registry-backed
	// runs that find themselves with work but no live worker WAIT for
	// one to register — loudly: the wait raises the
	// fairness_cluster_waiting gauge and is a pool_wait span under the
	// run, instead of stalling silently.
	var poolWait *telemetry.Span // open while the run waits for a worker
	endWait := func() {
		if poolWait != nil {
			opts.Metrics.Gauge("fairness_cluster_waiting").Set(0)
			poolWait.End()
			poolWait = nil
		}
	}
	checkWaiting := func() {
		if !run.registryMode {
			return
		}
		s.mu.Lock()
		queued := len(s.queue)
		workLeft := queued > 0 || s.outstanding > 0
		stalled := workLeft && s.failed == nil && !s.finished && len(reg.Live()) == 0
		s.mu.Unlock()
		switch {
		case stalled && poolWait == nil:
			opts.Metrics.Gauge("fairness_cluster_waiting").Set(1)
			poolWait = telemetry.StartSpan(opts.Tracer, opts.Recorder, run.span,
				"coordinator", "pool_wait", "reason", "no live workers", "queued", queued)
		case !stalled:
			endWait()
		}
	}
	// Each scan takes the registry's watch channel first, so a worker
	// that registers during the scan still wakes the next wait.
	watch := reg.Watch()
	s.spawnLoops()
	checkWaiting()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(supervisorInterval)
		defer tick.Stop()
		for {
			select {
			case <-watch:
			case <-tick.C:
			case <-s.runDone:
				endWait()
				return
			}
			watch = reg.Watch()
			s.spawnLoops()
			checkWaiting()
		}
	}()

	// Wait for delivery of every item, or the first terminal failure.
	// With a Registry and no live worker the wait simply continues —
	// self-organizing pools fill up, they don't fail empty.
	s.mu.Lock()
	for s.failed == nil && !(len(s.queue) == 0 && s.outstanding == 0) {
		s.cond.Wait()
	}
	s.finished = true
	err := s.failed
	s.mu.Unlock()
	s.cond.Broadcast()
	runCancel()
	close(s.runDone)
	s.wg.Wait()
	return err
}

// spawnLoops starts a worker loop for every live member without one
// and refreshes the live-worker gauge.
func (s *sched) spawnLoops() {
	live := s.reg.Live()
	s.run.met.workers.Set(float64(len(live)))
	for _, m := range live {
		s.mu.Lock()
		if s.finished || s.failed != nil {
			s.mu.Unlock()
			return
		}
		if !s.loops[m.URL] {
			s.loops[m.URL] = true
			s.liveLoops++
			s.wg.Add(1)
			go s.workerLoop(m.URL)
		}
		s.mu.Unlock()
	}
}

// shardSizeFor picks the next shard size for a worker.
func (s *sched) shardSizeFor(url string) int {
	if s.opts.ShardSize > 0 {
		return s.opts.ShardSize
	}
	return adaptiveShardSize(s.reg.Rate(url),
		durationOr(s.opts.TargetShardTime, defaultTargetShardTime),
		valueOr(s.opts.MaxShardSize, defaultMaxShardSize))
}

// workerLoop is one worker's claim cycle: cut a shard off the queue,
// claim it, merge the stream, repeat. It exits when the run ends or the
// worker proves dead or stuck — in which case its unfinished items are
// already back on the queue for the others.
func (s *sched) workerLoop(url string) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.loops, url)
		s.liveLoops--
		workLeft := len(s.queue) > 0 || s.outstanding > 0
		if s.liveLoops == 0 && workLeft && !s.run.registryMode &&
			s.failed == nil && !s.finished {
			// Static pools cannot grow back: fail rather than deadlock.
			s.failed = fmt.Errorf("%w: all workers lost mid-run", ErrNoWorkers)
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}()

	consecFails := 0
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && s.outstanding > 0 && s.failed == nil && !s.finished {
			s.cond.Wait()
		}
		if s.failed != nil || s.finished || len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		want := min(s.shardSizeFor(url), len(s.queue))
		s.mu.Unlock()

		// Ask the dispatch gate (if any) before cutting the shard. The
		// grant is held until the items are merged or requeued; the queue
		// is re-checked under lock afterwards because other loops may
		// have drained it while this one waited at the gate. runCtx
		// carries the run's sweep span, so a gate that traces its waits
		// (the job scheduler's gate_wait) parents them under the run.
		release := func() {}
		granted := want
		if s.opts.Gate != nil {
			var err error
			granted, release, err = s.opts.Gate.Acquire(s.runCtx, want)
			if err != nil {
				return
			}
			if granted <= 0 {
				release()
				return
			}
		}

		s.mu.Lock()
		if s.failed != nil || s.finished {
			s.mu.Unlock()
			release()
			return
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			release()
			continue
		}
		n := min(granted, len(s.queue))
		batch := make([]workItem, n)
		copy(batch, s.queue[:n])
		s.queue = s.queue[n:]
		s.outstanding += n
		s.mu.Unlock()

		t := newTask(batch)
		s.run.met.claimed.Inc()
		// Each claim attempt is its own dispatch span under the run span.
		// A requeued shard's next attempt mints a fresh dispatch span on
		// the same trace — retries keep the trace_id, never reuse spans.
		dsp := telemetry.StartSpan(s.opts.Tracer, s.opts.Recorder,
			s.run.span, "coordinator", "dispatch",
			"shard", t.id, "worker", url, "scenarios", len(batch))
		start := time.Now()
		sum, deliveredOut, err := s.claimShard(url, t, dsp.Context())
		if err == nil {
			s.reg.ObserveRate(url, len(batch), time.Since(start))
			s.opts.Metrics.Gauge("fairness_cluster_worker_rate", "worker", url).Set(s.reg.Rate(url))
			s.run.addTrials(sum.TrialsRun)
			ackShard(s.run.client, url, t.id, s.run.ackTimeout)
			s.run.met.acked.Inc()
			dsp.End("status", "acked", "trials", sum.TrialsRun)
			s.mu.Lock()
			s.outstanding -= n
			s.mu.Unlock()
			release()
			s.cond.Broadcast()
			consecFails = 0
			continue
		}

		// Failure: whatever streamed before the cut stays merged (with a
		// trials estimate, since the summary never arrived); only the
		// undelivered remainder re-enters the queue.
		for _, o := range deliveredOut {
			s.run.addTrials(estimateTrials(o))
		}
		var remainder []workItem
		for _, it := range batch {
			if !s.run.isDelivered(it.hash) {
				remainder = append(remainder, it)
			}
		}
		failAttrs := []any{"status", "requeued", "error", err.Error(),
			"delivered", len(deliveredOut), "remainder", len(remainder)}
		s.mu.Lock()
		s.outstanding -= n
		if s.failed == nil && !s.finished {
			for _, it := range remainder {
				s.attempts[it.hash]++
				if s.attempts[it.hash] >= s.run.maxAttempts {
					s.failed = fmt.Errorf("%w: item %.12s after %d attempts (last worker %s): %v",
						ErrShard, it.hash, s.attempts[it.hash], url, err)
					break
				}
			}
			s.queue = append(s.queue, remainder...)
		}
		terminal := s.failed != nil
		s.mu.Unlock()
		release()
		s.cond.Broadcast()
		s.run.met.requeued.Inc()
		if terminal || s.runCtx.Err() != nil {
			dsp.End(failAttrs...)
			return
		}
		// The dispatch span ends once the worker's fate is known: a
		// worker that is answering healthz but not finishing work, or
		// that computes something other than what it was asked, or that
		// fails its liveness probe is quarantined, so it cannot keep
		// reclaiming the queue.
		reason := ""
		switch {
		case errors.Is(err, errLeaseExpired):
			s.opts.Metrics.Counter("fairness_cluster_lease_expiry_total").Inc()
			reason = "lease expired"
		case errors.Is(err, errBadOutcome):
			reason = "bad outcome"
		case !Probe(s.runCtx, s.run.client, url, s.run.probeTimeout).OK:
			reason = "health probe failed"
		}
		if reason != "" {
			s.reg.Penalize(url)
			s.opts.Metrics.Counter("fairness_cluster_worker_quarantine_total").Inc()
			dsp.End(append(failAttrs, "quarantine", reason)...)
			return
		}
		dsp.End(failAttrs...)
		// Alive but failing: back off this worker only; the requeued
		// items are already stealable by everyone else. The shift is
		// capped — consecFails is unbounded on a multi-worker pool
		// (other workers absorb the retry budget), and an overflowed
		// shift would turn the backoff negative and busy-loop.
		consecFails++
		d := s.run.backoffMax
		if shift := consecFails - 1; shift < 16 {
			d = min(s.run.backoffBase<<shift, s.run.backoffMax)
		}
		select {
		case <-time.After(d):
		case <-s.runCtx.Done():
			return
		}
	}
}

// estimateTrials approximates the Monte-Carlo trials behind one merged
// outcome when the shard summary (the exact count) never arrived: the
// spec's trial budget for sampling backends, nothing for cache hits or
// the closed-form theory backend.
func estimateTrials(o sweep.Outcome) int64 {
	if o.CacheHit || o.Backend == "theory" {
		return 0
	}
	return int64(o.Spec.Trials)
}

// claimShard runs one claim/stream exchange, merging outcomes into the
// report AS THEY STREAM (so progress is live and a torn stream keeps
// its completed prefix) under a per-shard inactivity lease. It succeeds
// only when the summary line confirms the shard and every expected hash
// arrived; any shortfall — transport error, HTTP error, torn stream,
// expired lease, short shard — is a retryable failure whose undelivered
// remainder the caller requeues. spanCtx is the dispatch span's context,
// shipped on the TraceHeader so the worker's eval span joins the trace.
func (s *sched) claimShard(url string, t *task, spanCtx telemetry.SpanContext) (shardSummary, []sweep.Outcome, error) {
	var deliveredOut []sweep.Outcome
	body, err := json.Marshal(shardRequest{ShardID: t.id, Scenarios: t.specs, Labels: s.run.labels})
	if err != nil {
		return shardSummary{}, nil, err
	}

	// The lease watchdog: any stream inactivity longer than the lease
	// cancels the claim. Every accepted line renews it.
	claimCtx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	var expired atomic.Bool
	watchdog := time.AfterFunc(s.run.lease, func() {
		expired.Store(true)
		cancel()
	})
	defer watchdog.Stop()
	leaseErr := func(err error) error {
		if expired.Load() {
			return fmt.Errorf("%w after %v: %v", errLeaseExpired, s.run.lease, err)
		}
		return err
	}

	req, err := http.NewRequestWithContext(claimCtx, http.MethodPost, url+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return shardSummary{}, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanCtx.Valid() {
		req.Header.Set(telemetry.TraceHeader, spanCtx.HeaderValue())
	}
	resp, err := s.run.client.Do(req)
	if err != nil {
		return shardSummary{}, nil, leaseErr(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return shardSummary{}, nil, fmt.Errorf("shard claim status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	want := make(map[string]bool, len(t.hashes))
	for _, h := range t.hashes {
		want[h] = true
	}
	deliveredHere := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		watchdog.Reset(s.run.lease)
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done  *bool  `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return shardSummary{}, deliveredOut, fmt.Errorf("undecodable stream line: %v", err)
		}
		if probe.Done != nil {
			var sum shardSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return shardSummary{}, deliveredOut, err
			}
			if sum.Error != "" {
				return sum, deliveredOut, fmt.Errorf("worker error: %s", sum.Error)
			}
			if sum.ShardID != t.id {
				return sum, deliveredOut, fmt.Errorf("summary for shard %.12s, expected %.12s", sum.ShardID, t.id)
			}
			if deliveredHere != len(t.hashes) {
				return sum, deliveredOut, fmt.Errorf("stream delivered %d of %d outcomes", deliveredHere, len(t.hashes))
			}
			return sum, deliveredOut, nil
		}
		if probe.Error != "" {
			return shardSummary{}, deliveredOut, fmt.Errorf("worker error: %s", probe.Error)
		}
		var o sweep.Outcome
		if err := json.Unmarshal(line, &o); err != nil {
			return shardSummary{}, deliveredOut, fmt.Errorf("undecodable outcome line: %v", err)
		}
		if !want[o.Hash] {
			continue // stray outcome from another run's namespace; ignore
		}
		if err := checkOutcome(o, s.run.backend); err != nil {
			s.run.met.rejected.Inc()
			return shardSummary{}, deliveredOut, err
		}
		s.run.met.streamed.Inc()
		if s.run.deliver(o.Hash, o, o.CacheHit) {
			deliveredHere++
			deliveredOut = append(deliveredOut, o)
		}
	}
	if err := sc.Err(); err != nil {
		return shardSummary{}, deliveredOut, leaseErr(err)
	}
	return shardSummary{}, deliveredOut, leaseErr(fmt.Errorf("stream ended without a summary line"))
}

// checkOutcome vets a streamed outcome before it is merged and cached:
// it must come from the run's backend, and its spec must re-hash to the
// hash it is filed under. One that fails was computed for something
// other than what the coordinator asked.
func checkOutcome(o sweep.Outcome, backend string) error {
	if o.Backend != backend {
		return fmt.Errorf("%w: %.12s from backend %q, run expects %q", errBadOutcome, o.Hash, o.Backend, backend)
	}
	h, err := o.Spec.Hash()
	if err != nil {
		return fmt.Errorf("%w: %.12s: %v", errBadOutcome, o.Hash, err)
	}
	if h != o.Hash {
		return fmt.Errorf("%w: %.12s carries a spec that hashes to %.12s", errBadOutcome, o.Hash, h)
	}
	return nil
}

// ackShard tells the worker its shard was merged; best-effort.
func ackShard(client *http.Client, url, shardID string, timeout time.Duration) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	body, _ := json.Marshal(map[string]string{"shard_id": shardID})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/shard/ack", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := client.Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
	}
}
