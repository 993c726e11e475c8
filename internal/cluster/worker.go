// Package cluster distributes scenario sweeps across fairnessd worker
// nodes: a coordinator partitions the expanded grid into shards keyed by
// scenario content hashes (internal/scenario), fans them out over HTTP,
// and merges the workers' NDJSON outcome streams into one deterministic
// report — bit-identical, modulo timing bookkeeping, to a local
// sweep.RunContext of the same scenario list.
//
// The cluster is self-organizing: workers register themselves with the
// coordinator and heartbeat to stay in the pool (Registry/Registrar), a
// static -workers seed list remains supported, and shard sizes adapt to
// each worker's measured throughput. The wire protocol stays small:
//
//	POST /v1/register   {"url":...,"backend":...,"scenarios_per_sec":...}
//	                    — coordinator side: join the pool (and renew the
//	                    membership lease; heartbeats are re-registrations).
//	POST /v1/deregister {"url":...} — graceful leave (fairnessd sends
//	                    this on SIGTERM).
//	POST /v1/shard      {"shard_id":"...","scenarios":[...]} — claim:
//	                    the worker registers the shard in flight and
//	                    streams one NDJSON outcome per scenario, then a
//	                    summary line {"done":true,"shard_id":...}.
//	                    Nothing follows the merged stream.
//	GET  /v1/healthz    liveness plus backend, cache counters, shard
//	                    counters and measured scenarios/sec, used for
//	                    placement and failure detection.
//
// Scheduling: work items live on one shared queue and every live worker
// cuts its next shard the moment it finishes the last, so fast (or
// cache-warm) workers naturally take more of the grid; the shard size
// each worker receives tracks an EWMA of its scenarios/sec, so cold or
// slow workers get small probing shards and fast workers get batched
// claims. Each claimed shard carries a lease renewed by every streamed
// outcome: a worker that stops streaming mid-shard loses the lease, the
// undelivered remainder re-enters the queue for any live worker, and
// the stalled worker is quarantined. Outcomes are content-addressed and
// merged idempotently, so reassignment never double-counts a scenario.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// RunFunc evaluates one shard's scenario list on the worker, streaming
// each outcome through onOutcome as it completes, and returns the run's
// sweep statistics. Implementations must serialise onOutcome calls (both
// sweep.RunContext's OnOutcome and the Engine observer already do).
type RunFunc func(ctx context.Context, specs []scenario.Spec, onOutcome func(sweep.Outcome)) (sweep.Stats, error)

// LocalRunner adapts a sweep.Options pipeline into a RunFunc: the
// simplest possible worker, used by tests and in-process clusters. The
// per-shard onOutcome is chained after any OnOutcome already present.
func LocalRunner(opts sweep.Options) RunFunc {
	return func(ctx context.Context, specs []scenario.Spec, onOutcome func(sweep.Outcome)) (sweep.Stats, error) {
		o := opts
		prev := o.OnOutcome
		switch {
		case prev != nil && onOutcome != nil:
			o.OnOutcome = func(out sweep.Outcome) { prev(out); onOutcome(out) }
		case onOutcome != nil:
			o.OnOutcome = onOutcome
		}
		rep, err := sweep.RunContext(ctx, specs, o)
		if rep != nil {
			return rep.Stats, err
		}
		return sweep.Stats{}, err
	}
}

// shardRequest is the claim body of POST /v1/shard. Labels is trace
// baggage (tenant, job) the coordinator forwards so worker-side spans
// and pprof profiles attribute shard work to its submitter. Only the
// job service sets a tenant label, and a shard that carries one is
// computed without the worker's cache: the job's coordinator keeps the
// outcomes in the tenant's own cache namespace.
type shardRequest struct {
	ShardID   string            `json:"shard_id"`
	Scenarios []scenario.Spec   `json:"scenarios"`
	Labels    map[string]string `json:"labels,omitempty"`
}

// shardSummary is the trailing NDJSON line of a shard stream: the
// worker's confirmation that every scenario of the shard was answered.
type shardSummary struct {
	Done      bool    `json:"done"`
	ShardID   string  `json:"shard_id"`
	Scenarios int     `json:"scenarios"`
	Streamed  int     `json:"streamed"`
	TrialsRun int64   `json:"trials_run"`
	CacheHits int     `json:"cache_hits"`
	WallMS    float64 `json:"wall_ms"`
	Error     string  `json:"error,omitempty"`
}

// maxShardBodyBytes bounds claim bodies; even thousand-scenario shards
// are far below this.
const maxShardBodyBytes = 32 << 20

// Timeouts of the HTTP servers that fairnessd and fairctl run. A
// request's headers must arrive within ServerReadHeaderTimeout. An idle
// keep-alive connection closes after ServerIdleTimeout, which outlasts
// the 90 s IdleConnTimeout of a pooled http.Transport: the client drops
// an idle connection first, so a server never closes one just as a
// claim is sent on it. There is no read or write timeout, since shard
// streams and claim bodies of up to 32 MiB are long-lived.
const (
	ServerReadHeaderTimeout = 10 * time.Second
	ServerIdleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns a server for h with the timeouts above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ServerReadHeaderTimeout,
		IdleTimeout:       ServerIdleTimeout,
	}
}

// WorkerServer is the worker-node side of the cluster protocol: it
// mounts the /v1/shard claim/stream endpoint over any sweep pipeline
// (a fairnessd Engine, or a bare LocalRunner) and tracks the shard
// counters and throughput EWMA that health endpoints and registration
// heartbeats report.
//
// The shard counters live on telemetry handles — the same storage a
// /metrics endpoint scrapes — so healthz and Prometheus exposition can
// never disagree. A nil registry yields detached (but fully functional)
// handles. Shards in flight are the open eval spans of the tracer set
// with SetTelemetry.
type WorkerServer struct {
	run      RunFunc
	claimed  *telemetry.Counter // fairness_worker_shards_claimed_total
	done     *telemetry.Counter // fairness_worker_shards_done_total
	streamed *telemetry.Counter // fairness_worker_outcomes_streamed_total
	inFlight *telemetry.Gauge   // fairness_worker_shards_in_flight
	rate     *telemetry.Gauge   // fairness_worker_scenarios_per_sec
	rateBits atomic.Uint64      // float64 bits of the scenarios/sec EWMA

	// Tracing (optional; set via SetTelemetry): eval/stream spans on
	// every shard, parented under the coordinator's dispatch span via the
	// TraceHeader.
	backend string
	tracer  *telemetry.Tracer
}

// NewWorkerServer builds a worker server over the given shard runner
// with detached (unexported) counters. Use NewWorkerServerWithMetrics to
// surface the counters on a /metrics registry.
func NewWorkerServer(run RunFunc) *WorkerServer {
	return NewWorkerServerWithMetrics(run, nil)
}

// NewWorkerServerWithMetrics builds a worker server whose shard
// lifecycle counters register as fairness_worker_* series on m (nil m =
// detached handles, same behaviour as NewWorkerServer).
func NewWorkerServerWithMetrics(run RunFunc, m *telemetry.Registry) *WorkerServer {
	return &WorkerServer{
		run:      run,
		claimed:  m.Counter("fairness_worker_shards_claimed_total"),
		done:     m.Counter("fairness_worker_shards_done_total"),
		streamed: m.Counter("fairness_worker_outcomes_streamed_total"),
		inFlight: m.Gauge("fairness_worker_shards_in_flight"),
		rate:     m.Gauge("fairness_worker_scenarios_per_sec"),
	}
}

// SetTelemetry wires the worker's span instrumentation: backend labels
// the eval spans, and tr holds the eval and stream spans, open and
// completed, for GET /v1/traces (mounted by the caller via
// telemetry.TracesHandler). Give the run function's sweep the same
// tracer and each eval span holds the shard's local sweep and scenario
// spans too. Either argument may be zero/nil; call before serving.
func (s *WorkerServer) SetTelemetry(backend string, tr *telemetry.Tracer) {
	s.backend, s.tracer = backend, tr
}

// Register mounts the shard endpoint on mux.
func (s *WorkerServer) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/shard", s.handleShard)
}

// InFlight returns the number of shards currently being evaluated.
func (s *WorkerServer) InFlight() int64 { return int64(s.inFlight.Value()) }

// Done returns the number of shards completed since startup.
func (s *WorkerServer) Done() int64 { return s.done.Value() }

// Claimed returns the number of shard claims accepted since startup.
func (s *WorkerServer) Claimed() int64 { return s.claimed.Value() }

// Streamed returns the number of outcome lines streamed since startup.
func (s *WorkerServer) Streamed() int64 { return s.streamed.Value() }

// Rate returns this worker's scenarios/sec EWMA across completed shards
// (0 until the first shard completes) — the figure heartbeats report
// and adaptive shard sizing consumes.
func (s *WorkerServer) Rate() float64 {
	return math.Float64frombits(s.rateBits.Load())
}

// observeRate folds one completed shard into the throughput EWMA.
func (s *WorkerServer) observeRate(scenarios int, wall time.Duration) {
	if scenarios <= 0 || wall <= 0 {
		return
	}
	obs := float64(scenarios) / wall.Seconds()
	for {
		old := s.rateBits.Load()
		cur := math.Float64frombits(old)
		next := obs
		if cur > 0 {
			next = rateEWMAAlpha*obs + (1-rateEWMAAlpha)*cur
		}
		if s.rateBits.CompareAndSwap(old, math.Float64bits(next)) {
			s.rate.Set(next)
			return
		}
	}
}

// handleShard is the claim+stream exchange: it validates the shard,
// counts it in flight, streams one NDJSON outcome per scenario and
// finishes with a summary line. The summary's Done:true is the worker's
// promise that every scenario streamed; anything else (an Error line, a
// torn connection, a short stream) tells the coordinator to requeue the
// shard's undelivered remainder elsewhere.
func (s *WorkerServer) handleShard(w http.ResponseWriter, r *http.Request) {
	var req shardRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxShardBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		shardError(w, http.StatusBadRequest, err)
		return
	}
	if req.ShardID == "" {
		shardError(w, http.StatusBadRequest, fmt.Errorf("missing shard_id"))
		return
	}
	if len(req.Scenarios) == 0 {
		shardError(w, http.StatusBadRequest, fmt.Errorf("empty shard"))
		return
	}
	for i := range req.Scenarios {
		if err := req.Scenarios[i].Validate(); err != nil {
			shardError(w, http.StatusBadRequest, fmt.Errorf("scenario %d: %w", i, err))
			return
		}
	}

	s.claimed.Inc()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// The eval span covers the whole shard evaluation, parented under the
	// coordinator's dispatch span when the claim carried a TraceHeader
	// (absent/malformed headers root a fresh trace, so a pre-tracing
	// coordinator still gets worker-side spans).
	parent, _ := telemetry.ParseTraceHeader(r.Header.Get(telemetry.TraceHeader))
	evalAttrs := []any{"shard", req.ShardID, "scenarios", len(req.Scenarios)}
	profLabels := []string{"shard", req.ShardID}
	if s.backend != "" {
		evalAttrs = append(evalAttrs, "backend", s.backend)
		profLabels = append(profLabels, "backend", s.backend)
	}
	for _, k := range []string{"tenant", "job"} {
		if v := req.Labels[k]; v != "" {
			evalAttrs = append(evalAttrs, k, v)
			profLabels = append(profLabels, k, v)
		}
	}
	eval := telemetry.StartSpan(s.tracer, parent, "worker", "eval", evalAttrs...)

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	streamed := 0
	start := time.Now()
	// The stream span (child of eval) opens lazily at the first outcome —
	// its window is "first result out until the run returns", separating
	// streaming/merge time from pure evaluation in the stage breakdown.
	// onOutcome calls are serialised per the RunFunc contract, so the
	// lazy open is race-free.
	var stream *telemetry.Span
	ctx := telemetry.ContextWithSpan(r.Context(), eval.Context())
	if len(req.Labels) > 0 {
		ctx = telemetry.ContextWithBaggage(ctx, req.Labels)
	}
	if req.Labels["tenant"] != "" {
		// A job's shard: the job's coordinator stores each outcome in the
		// tenant's cache namespace. A copy in this worker's cache would
		// cost a second write and serve the outcome to other tenants.
		ctx = sweep.WithoutCache(ctx)
	}
	var stats sweep.Stats
	var err error
	// pprof labels (tenant/job/shard/backend) tag every eval goroutine so
	// CPU profiles attribute cluster work to its submitter.
	pprof.Do(ctx, pprof.Labels(profLabels...), func(ctx context.Context) {
		stats, err = s.run(ctx, req.Scenarios, func(out sweep.Outcome) {
			if stream == nil {
				stream = telemetry.StartSpan(s.tracer, eval.Context(),
					"worker", "stream", "shard", req.ShardID)
			}
			if enc.Encode(out) == nil {
				streamed++
				s.streamed.Inc()
			}
			if flusher != nil {
				flusher.Flush()
			}
		})
	})
	stream.End("streamed", streamed)
	sum := shardSummary{
		ShardID:   req.ShardID,
		Scenarios: len(req.Scenarios),
		Streamed:  streamed,
		TrialsRun: stats.TrialsRun,
		CacheHits: stats.CacheHits,
		WallMS:    float64(time.Since(start).Microseconds()) / 1000,
	}
	switch {
	case r.Context().Err() != nil:
		eval.End("status", "torn", "streamed", streamed)
		return // coordinator went away; nothing left to tell it
	case err != nil:
		sum.Error = err.Error()
		eval.End("status", "error", "error", err.Error(), "streamed", streamed)
	default:
		sum.Done = true
		s.done.Inc()
		s.observeRate(len(req.Scenarios), time.Since(start))
		eval.End("status", "done", "streamed", streamed, "trials", stats.TrialsRun)
	}
	enc.Encode(sum)
}

// shardError writes a JSON error with the given status — the pre-stream
// failure shape (mid-stream failures surface as NDJSON Error lines).
func shardError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
