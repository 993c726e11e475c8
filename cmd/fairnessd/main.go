// Command fairnessd serves the fairness Engine over HTTP/JSON: one
// long-lived Engine and one (optionally disk-backed) result cache shared
// by every request, so repeated and overlapping scenario questions get
// answered from cache across clients — and across daemon restarts when
// -cache-dir is set.
//
// Endpoints:
//
//	POST /v1/evaluate  body: one scenario JSON object
//	                   → 200 with the outcome JSON (engine cache applies)
//	POST /v1/sweep     body: a scenario array or a grid object (same
//	                   format as fairsweep -spec files)
//	                   → 200 with application/x-ndjson: one outcome per
//	                   line as it completes, then a final summary line
//	                   {"done":true,...}. Closing the connection cancels
//	                   the sweep within one scenario.
//	POST /v1/shard     cluster work item (internal/cluster): claim a
//	                   shard of scenarios, stream its outcomes as NDJSON,
//	                   finish with a {"done":true,"shard_id":...} summary.
//	GET  /v1/healthz   → {"status":"ok",...} with backend, cache hit/miss
//	                   counters, shard counters and the measured
//	                   scenarios/sec — everything a coordinator or load
//	                   balancer needs for placement, and the worker line
//	                   of `fairctl watch`.
//	GET  /v1/traces    the daemon's tracer: recently completed spans under
//	                   "spans" and spans still in flight under "open"
//	                   (eval/stream per shard, a local sweep span with
//	                   its scenario spans per sweep, plus job spans when
//	                   this daemon runs the job service), filterable with
//	                   ?trace_id= — what `fairctl trace` and `fairctl
//	                   watch` read.
//	GET  /metrics      Prometheus text exposition of the process registry:
//	                   fairness_sweep_*, fairness_cache_*,
//	                   fairness_worker_*, fairness_jobs_*,
//	                   fairness_eval_seconds and the simulation totals.
//	                   Healthz counters read the same registry handles, so
//	                   the two views cannot drift.
//
// With -jobs the daemon additionally runs the multi-tenant job service
// (internal/jobs) and mounts its API:
//
//	POST /v1/jobs                submit a named sweep job (202 + snapshot)
//	GET  /v1/jobs?tenant=&state= list jobs in submission order
//	GET  /v1/jobs/{id}           one job's lifecycle snapshot
//	POST /v1/jobs/{id}/cancel    cancel (partial results are preserved)
//	GET  /v1/jobs/{id}/results   paginated outcomes of a finished job
//
// Jobs from all tenants share one execution substrate under a weighted
// fair-share scheduler; per-tenant quotas, cache namespaces and result
// retention apply (see README "Job service"). By default jobs run on
// the daemon's own engine; with -jobs-cluster the daemon instead
// becomes a job coordinator: it accepts worker self-registration (POST
// /v1/register, i.e. other fairnessd instances started with -register
// pointed here) and fans each job's shards out over the registered
// pool.
//
// Flags:
//
//	-addr ADDR          listen address (default :7447)
//	-pprof              also mount net/http/pprof under /debug/pprof/
//	                    (off by default: profiling endpoints are opt-in)
//	-cache-dir DIR      disk result cache shared across restarts
//	-cache-max-bytes N  size-cap the disk cache: LRU entries are evicted
//	                    once stored outcomes exceed N bytes (0 = unbounded)
//	-cache N            in-memory LRU capacity when -cache-dir is unset
//	-workers N          scenario-level parallelism per sweep (0 = all cores)
//	-backend NAME       montecarlo (default), theory, chainsim or arena
//	-adaptive           early stopping: each scenario's trials is a budget,
//	                    runs halt once the verdict is resolved (montecarlo
//	                    only); tune with -stop-confidence, -stop-min-trials
//	                    and -stop-batch
//	-register URL       coordinator to register with: the worker joins the
//	                    cluster by itself, heartbeats to keep its lease,
//	                    and deregisters gracefully on SIGTERM
//	-advertise URL      own base URL as reachable from the coordinator
//	                    (default: derived from -addr)
//	-heartbeat D        heartbeat interval override (0 = coordinator's
//	                    suggestion, TTL/3)
//	-jobs               run the multi-tenant job service (/v1/jobs)
//	-jobs-cluster       back jobs with self-registering workers instead
//	                    of the local engine (the daemon coordinates)
//	-jobs-max-queued N  per-tenant open-jobs quota (default 16)
//	-jobs-max-inflight N per-tenant in-flight scenario quota (0 = unlimited)
//	-jobs-max-concurrent N jobs running at once (default 64)
//	-jobs-retain N      finished jobs kept per tenant (default 32)
//	-jobs-shard-size N  pin cluster-mode job shards to N scenarios (0 = adaptive)
//	-jobs-weights CSV   per-tenant fair-share weights, "alice=3,bob=1"
//	                    (unlisted tenants weigh 1)
//	-trace FILE         also write the spans /v1/traces serves — sweep and
//	                    scenario spans, and with -jobs each job's job,
//	                    queued and gate_wait spans — to FILE as NDJSON
//	                    ("-" = stderr)
//
// Run several fairnessd instances with -register pointed at a `fairctl
// run -listen` coordinator (plus one shared -cache-dir) and they form a
// self-organizing sweep cluster with a communal warm cache; see README
// "Cluster mode".
//
// Example session:
//
//	fairnessd -addr :7447 -cache-dir /var/cache/fairnessd \
//	    -register http://coordinator:7800 &
//	curl -s localhost:7447/v1/evaluate -d '{"protocol":"mlpos","stake":0.2}'
//	curl -sN localhost:7447/v1/sweep -d '{"protocols":["pow","mlpos"],"stake":[0.1,0.2]}'
//	curl -s localhost:7447/v1/healthz
//	curl -s localhost:7447/v1/traces
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":7447", "listen address")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "disk result-cache directory (survives restarts)")
	flag.Int64Var(&cfg.cacheMaxBytes, "cache-max-bytes", 0, "size cap for -cache-dir: evict LRU entries beyond N bytes (0 = unbounded)")
	flag.IntVar(&cfg.cacheCap, "cache", 4096, "in-memory LRU capacity when -cache-dir is unset (0 = no cache)")
	flag.IntVar(&cfg.workers, "workers", 0, "scenario-level parallelism per sweep (0 = all cores)")
	flag.StringVar(&cfg.backend, "backend", "montecarlo", "evaluator backend: montecarlo, theory, chainsim, arena")
	flag.BoolVar(&cfg.adaptive, "adaptive", false, "adaptive early stopping: treat each scenario's trials as a budget, stop once the verdict is resolved (montecarlo backend only)")
	flag.Float64Var(&cfg.stopConfidence, "stop-confidence", 0, "adaptive stopping error budget across all looks (0 = default)")
	flag.IntVar(&cfg.stopMinTrials, "stop-min-trials", 0, "smallest trial prefix the stopping rule evaluates (0 = default)")
	flag.IntVar(&cfg.stopBatch, "stop-batch", 0, "trial batch size / stopping granularity (0 = default)")
	flag.StringVar(&cfg.register, "register", "", "coordinator base URL to self-register with (heartbeats + graceful deregister)")
	flag.StringVar(&cfg.advertise, "advertise", "", "own base URL as reachable from the coordinator (default: derived from -addr)")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 0, "registration heartbeat interval (0 = coordinator's suggestion)")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.BoolVar(&cfg.jobs, "jobs", false, "run the multi-tenant job service (/v1/jobs)")
	flag.BoolVar(&cfg.jobsCluster, "jobs-cluster", false, "back jobs with self-registering workers (implies -jobs)")
	flag.IntVar(&cfg.jobsMaxQueued, "jobs-max-queued", 0, "per-tenant open-jobs quota (0 = 16)")
	flag.IntVar(&cfg.jobsMaxInflight, "jobs-max-inflight", 0, "per-tenant in-flight scenario quota (0 = unlimited)")
	flag.IntVar(&cfg.jobsMaxConcurrent, "jobs-max-concurrent", 0, "jobs running at once (0 = 64)")
	flag.IntVar(&cfg.jobsRetain, "jobs-retain", 0, "finished jobs kept per tenant (0 = 32)")
	flag.IntVar(&cfg.jobsShardSize, "jobs-shard-size", 0, "pin cluster-mode job shards to N scenarios (0 = adaptive)")
	flag.StringVar(&cfg.jobsWeights, "jobs-weights", "", `per-tenant fair-share weights, "alice=3,bob=1"`)
	trace := flag.String("trace", "", `write NDJSON span events to FILE ("-" = stderr)`)
	flag.Parse()

	if *trace != "" {
		w := io.Writer(os.Stderr)
		if *trace != "-" {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fairnessd:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		cfg.tracer = fairness.NewTracerWithMetrics(w, fairness.DefaultMetrics())
	}
	srv, err := newServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairnessd:", err)
		os.Exit(1)
	}
	defer srv.close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, srv, cfg, net.Listen); err != nil {
		fmt.Fprintln(os.Stderr, "fairnessd:", err)
		os.Exit(1)
	}
}

// serve opens its listener on cfg.addr with listen (net.Listen outside
// tests) and serves srv until ctx ends, then shuts down gracefully. With
// cfg.register set the worker also registers with its coordinator, but
// only once the listener exists: a coordinator may probe or claim from a
// worker the moment it registers.
func serve(ctx context.Context, srv *server, cfg config, listen func(network, address string) (net.Listener, error)) error {
	var rg *cluster.Registrar
	if cfg.register != "" {
		var err error
		if rg, err = srv.registrar(cfg); err != nil {
			return err
		}
	}
	ln, err := listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := cluster.NewHTTPServer(srv.mux())
	ctx, stop := context.WithCancel(ctx)
	defer stop()

	// Self-registration: announce this worker to the coordinator, renew
	// the membership lease until ctx ends, then deregister so the
	// coordinator stops scheduling onto us BEFORE the listener drains its
	// in-flight streams.
	registrarDone := make(chan struct{})
	if rg != nil {
		go func() {
			defer close(registrarDone)
			rg.Run(ctx)
		}()
		fmt.Fprintf(os.Stderr, "fairnessd: registering %s with %s\n", rg.Self, rg.Coordinator)
	} else {
		close(registrarDone)
	}

	// Shutdown returns only once the in-flight handlers drained (or the
	// grace period expired); serve must wait for it, or exiting would cut
	// live NDJSON streams mid-scenario.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		<-registrarDone // deregister first: no new shards while draining
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	fmt.Fprintf(os.Stderr, "fairnessd: listening on %s (backend=%s cache=%s)\n",
		cfg.addr, srv.backendName, srv.cacheDesc)
	err = httpSrv.Serve(ln)
	stop() // unblock the shutdown goroutine if the listener failed on its own
	<-shutdownDone
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// advertiseURL derives the worker's registered base URL from -advertise
// or, failing that, from the listen address: ":7447" advertises
// "http://127.0.0.1:7447" (single-host development), "host:7447"
// advertises itself.
func advertiseURL(advertise, addr string) (string, error) {
	if advertise != "" {
		return cluster.NormalizeWorkerURL(advertise), nil
	}
	if addr == "" {
		return "", fmt.Errorf("-register needs -advertise or a concrete -addr")
	}
	if strings.HasPrefix(addr, ":") {
		addr = "127.0.0.1" + addr
	}
	return cluster.NormalizeWorkerURL(addr), nil
}

// config assembles a server.
type config struct {
	addr              string
	cacheDir          string
	cacheMaxBytes     int64
	cacheCap          int
	workers           int
	backend           string
	adaptive          bool
	stopConfidence    float64
	stopMinTrials     int
	stopBatch         int
	register          string
	advertise         string
	heartbeat         time.Duration
	pprof             bool
	jobs              bool
	jobsCluster       bool
	jobsMaxQueued     int
	jobsMaxInflight   int
	jobsMaxConcurrent int
	jobsRetain        int
	jobsShardSize     int
	jobsWeights       string
	// metrics overrides the process-global registry (tests inject a
	// fresh one so counters stay hermetic per server).
	metrics *fairness.MetricsRegistry
	// tracer, when non-nil, replaces the daemon's writer-less tracer
	// (-trace writes NDJSON; tests inject buffers).
	tracer *fairness.Tracer
}

// server is the HTTP face of one shared Engine. All counters — request
// totals, cache hits, shard lifecycle — live on one telemetry registry;
// /v1/healthz and /metrics read the same handles.
type server struct {
	eng         *fairness.Engine
	cache       fairness.CacheStore
	shards      *cluster.WorkerServer
	metrics     *fairness.MetricsRegistry
	tracer      *fairness.Tracer
	backendName string
	cacheDesc   string
	start       time.Time
	pprof       bool
	evaluates   *fairness.MetricsCounter
	sweeps      *fairness.MetricsCounter
	// The optional multi-tenant job service (-jobs): the manager owns
	// lifecycle/fair-share/quotas/retention, jobsAPI is its HTTP face,
	// and jobsReg (cluster mode only) is the worker membership table
	// jobs dispatch onto.
	jobsMgr *fairness.JobManager
	jobsAPI *fairness.JobServer
	jobsReg *fairness.ClusterRegistry
}

// maxBodyBytes bounds request bodies; scenario documents are tiny.
const maxBodyBytes = 4 << 20

func newServer(cfg config) (*server, error) {
	// The process-global registry aggregates everything this daemon does:
	// engine sweep counters, cache hit/miss, worker shard lifecycle, and
	// the montecarlo/chainsim simulation totals (which register there on
	// their own).
	m := cfg.metrics
	if m == nil {
		m = fairness.DefaultMetrics()
	}
	s := &server{
		start:       time.Now(),
		backendName: cfg.backend,
		cacheDesc:   "none",
		metrics:     m,
		tracer:      cfg.tracer,
		pprof:       cfg.pprof,
		evaluates:   m.Counter("fairness_http_requests_total", "endpoint", "evaluate"),
		sweeps:      m.Counter("fairness_http_requests_total", "endpoint", "sweep"),
	}
	if s.tracer == nil {
		s.tracer = fairness.NewTracer(nil)
	}
	if s.backendName == "" {
		s.backendName = "montecarlo"
	}
	ev, err := fairness.BackendByName(s.backendName)
	if err != nil {
		return nil, err
	}
	if cfg.adaptive {
		if ev != nil {
			return nil, fmt.Errorf("fairnessd: -adaptive requires the montecarlo backend, got %q", s.backendName)
		}
		ev = fairness.MonteCarloAdaptiveBackend(fairness.AdaptiveTrials{
			Confidence: cfg.stopConfidence,
			MinTrials:  cfg.stopMinTrials,
			Batch:      cfg.stopBatch,
		})
		// The variant name namespaces caches, cluster shards and metric
		// labels so adaptive results never mix with exhaustive ones.
		s.backendName = ev.Name()
	}
	switch {
	case cfg.cacheDir != "":
		disk, err := fairness.NewDiskCacheWithMetrics(cfg.cacheDir, m)
		if err != nil {
			return nil, err
		}
		if cfg.cacheMaxBytes > 0 {
			disk.SetMaxBytes(cfg.cacheMaxBytes)
		}
		s.cache = disk
		s.cacheDesc = "disk:" + disk.Dir()
	case cfg.cacheCap > 0:
		s.cache = fairness.NewSweepCacheWithMetrics(cfg.cacheCap, m)
		s.cacheDesc = fmt.Sprintf("lru:%d", cfg.cacheCap)
	}
	opts := []fairness.EngineOption{
		fairness.WithWorkers(cfg.workers),
		fairness.WithTelemetry(m, s.tracer),
	}
	if s.cache != nil {
		opts = append(opts, fairness.WithCache(s.cache))
	}
	if ev != nil {
		opts = append(opts, fairness.WithBackend(ev))
	}
	s.eng = fairness.NewEngine(opts...)
	// The worker-node face of the cluster protocol: shards evaluate
	// through the same shared Engine (and therefore the same cache) as
	// every other request.
	s.shards = cluster.NewWorkerServerWithMetrics(func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
		rep, err := s.eng.SweepObserved(ctx, specs, on)
		if rep != nil {
			return rep.Stats, err
		}
		return sweep.Stats{}, err
	}, m)
	// Worker-side spans: each claimed shard evaluates under an eval span
	// parented (via X-Fairness-Trace) on the coordinator's dispatch span,
	// with the engine's sweep and scenario spans beneath it.
	s.shards.SetTelemetry(s.backendName, s.tracer)
	if cfg.jobs || cfg.jobsCluster {
		if err := s.initJobs(cfg, m, ev); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// initJobs assembles the multi-tenant job service. Local mode runs jobs
// on this daemon's engine configuration, chunked through the fair-share
// gate so concurrent tenants interleave; cluster mode makes the daemon a
// coordinator dispatching each job's shards onto self-registered
// workers.
func (s *server) initJobs(cfg config, m *fairness.MetricsRegistry, ev fairness.Evaluator) error {
	weights, err := parseWeights(cfg.jobsWeights)
	if err != nil {
		return err
	}
	jcfg := fairness.JobConfig{
		MaxQueuedPerTenant:   cfg.jobsMaxQueued,
		MaxInflightPerTenant: cfg.jobsMaxInflight,
		MaxConcurrentJobs:    cfg.jobsMaxConcurrent,
		RetainPerTenant:      cfg.jobsRetain,
		Weights:              weights,
		Cache:                s.cache,
		Metrics:              m,
		Tracer:               s.tracer,
	}
	if cfg.jobsCluster {
		reg := fairness.NewClusterRegistry(s.backendName, 0)
		s.jobsReg = reg
		jcfg.Runner = fairness.JobClusterRunner(fairness.ClusterOptions{
			Registry:  reg,
			Backend:   s.backendName,
			ShardSize: cfg.jobsShardSize,
			Metrics:   m,
			Tracer:    s.tracer,
		})
		// Twice the live pool keeps every worker busy while still forcing
		// tenants to contest dispatch under saturation.
		jcfg.Capacity = func() int { return 2 * len(reg.Live()) }
	} else {
		jcfg.Runner = fairness.JobLocalRunner(fairness.SweepOptions{
			Workers:   cfg.workers,
			Evaluator: ev,
			Metrics:   m,
			Tracer:    s.tracer,
		}, 0)
	}
	mgr, err := fairness.NewJobManager(jcfg)
	if err != nil {
		return err
	}
	s.jobsMgr = mgr
	s.jobsAPI = fairness.NewJobServer(mgr)
	return nil
}

// parseWeights parses the -jobs-weights CSV ("alice=3,bob=1.5").
func parseWeights(csv string) (map[string]float64, error) {
	if csv == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tenant, val, ok := strings.Cut(part, "=")
		if !ok || tenant == "" {
			return nil, fmt.Errorf("-jobs-weights: bad entry %q (want tenant=weight)", part)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-jobs-weights: bad weight %q for tenant %q", val, tenant)
		}
		out[tenant] = w
	}
	return out, nil
}

// close shuts the job service down: live jobs are cancelled (keeping
// their partial reports) and their goroutines joined.
func (s *server) close() {
	if s.jobsMgr != nil {
		s.jobsMgr.Close()
	}
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.Handle("GET /v1/traces", fairness.TracesHandler(s.tracer))
	mux.Handle("GET /metrics", fairness.MetricsHandler(s.metrics))
	if s.pprof {
		telemetry.RegisterPprof(mux)
	}
	s.shards.Register(mux) // /v1/shard
	if s.jobsAPI != nil {
		s.jobsAPI.Register(mux) // /v1/jobs...
	}
	if s.jobsReg != nil {
		// Cluster-mode job service: accept worker self-registration on
		// the same listener (fairnessd -register http://this-daemon).
		fairness.NewClusterRegistryServer(s.jobsReg).RegisterMembership(mux)
	}
	return mux
}

// registrar assembles the worker-side registration client: heartbeats
// carry the live scenarios/sec EWMA so the coordinator can size shards
// before it has observed this worker itself.
func (s *server) registrar(cfg config) (*cluster.Registrar, error) {
	self, err := advertiseURL(cfg.advertise, cfg.addr)
	if err != nil {
		return nil, err
	}
	return &cluster.Registrar{
		Coordinator: cfg.register,
		Self:        self,
		Backend:     s.backendName,
		Rate:        s.shards.Rate,
		Interval:    cfg.heartbeat,
		OnError: func(err error) {
			fmt.Fprintln(os.Stderr, "fairnessd: register:", err)
		},
	}, nil
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// readBody slurps a bounded request body. When it cannot, it answers
// 413 for a body over maxBodyBytes and 400 otherwise, and returns false.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return nil, false
	}
	return body, true
}

// handleEvaluate answers one scenario through the shared Engine: cache
// hits are served without computing, and the outcome records which
// backend produced it.
func (s *server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	s.evaluates.Inc()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	spec, err := scenario.Decode(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.eng.EvaluateScenario(r.Context(), spec)
	switch {
	case errors.Is(err, context.Canceled):
		return // client went away; nothing to write
	case err != nil:
		httpError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// sweepSummary is the trailing NDJSON line of a /v1/sweep response.
type sweepSummary struct {
	Done      bool    `json:"done"`
	Scenarios int     `json:"scenarios"`
	Streamed  int     `json:"streamed"`
	CacheHits int     `json:"cache_hits"`
	WallMS    float64 `json:"wall_ms"`
	Partial   bool    `json:"partial,omitempty"`
}

// handleSweep expands the request into a scenario list and streams one
// NDJSON outcome line per scenario as the shared Engine completes it,
// then a summary line. The request context cancels the sweep, so a
// dropped connection stops computing within one scenario.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.sweeps.Inc()
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	specs, err := decodeSpecs(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()
	sum := sweepSummary{Scenarios: len(specs)}
	for out, err := range s.eng.Stream(r.Context(), specs) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return // client went away mid-stream
			}
			sum.Partial = true
			enc.Encode(map[string]string{"error": err.Error()})
			break
		}
		sum.Streamed++
		if out.CacheHit {
			sum.CacheHits++
		}
		if enc.Encode(out) != nil {
			return // write failure: the connection is gone
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	sum.Done = !sum.Partial
	sum.WallMS = float64(time.Since(start).Microseconds()) / 1000
	enc.Encode(sum)
}

// handleHealthz reports liveness plus the shared cache and backend
// state. It is probe-friendly: everything reported is O(1) — notably it
// never walks the disk cache (cache hit/miss and shard counters read
// the same telemetry-registry handles /metrics scrapes, and an entry
// count is only included for the in-memory LRU, whose Len is
// constant-time).
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type health struct {
		Status  string `json:"status"`
		Backend string `json:"backend"`
		// Capabilities is the backend's declared scenario coverage, so a
		// coordinator (or an operator's curl) can see up front whether
		// this worker answers adversarial or fork-aware scenarios.
		Capabilities     fairness.Capabilities `json:"capabilities"`
		Cache            string                `json:"cache"`
		CacheLen         *int                  `json:"cache_len,omitempty"`
		CacheHits        *uint64               `json:"cache_hits,omitempty"`
		CacheMisses      *uint64               `json:"cache_misses,omitempty"`
		Evaluates        int64                 `json:"evaluates"`
		Sweeps           int64                 `json:"sweeps"`
		ShardsClaimed    int64                 `json:"shards_claimed"`
		ShardsInFlight   int64                 `json:"shards_in_flight"`
		ShardsDone       int64                 `json:"shards_done"`
		OutcomesStreamed int64                 `json:"outcomes_streamed"`
		ScenariosPerSec  float64               `json:"scenarios_per_sec"`
		UptimeMS         int64                 `json:"uptime_ms"`
		GoMaxProcs       int                   `json:"gomaxprocs"`
	}
	caps := s.eng.Capabilities()
	h := health{
		Status:           "ok",
		Backend:          s.backendName,
		Capabilities:     caps,
		Cache:            s.cacheDesc,
		Evaluates:        s.evaluates.Value(),
		Sweeps:           s.sweeps.Value(),
		ShardsClaimed:    s.shards.Claimed(),
		ShardsInFlight:   s.shards.InFlight(),
		ShardsDone:       s.shards.Done(),
		OutcomesStreamed: s.shards.Streamed(),
		ScenariosPerSec:  s.shards.Rate(),
		UptimeMS:         time.Since(s.start).Milliseconds(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
	}
	if c, ok := s.cache.(interface{ Counters() (hits, misses uint64) }); ok {
		hits, misses := c.Counters()
		h.CacheHits, h.CacheMisses = &hits, &misses
	}
	if lru, ok := s.cache.(*fairness.SweepCache); ok {
		n := lru.Len()
		h.CacheLen = &n
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// decodeSpecs accepts either an explicit scenario array or a grid object
// — the same two formats fairsweep -spec files use — and returns the
// validated scenario list.
func decodeSpecs(body []byte) ([]fairness.Scenario, error) {
	return scenario.DecodeSpecsOrGrid(body, 0)
}

// statusFor maps evaluation errors onto HTTP statuses: spec problems and
// backend-coverage gaps are the client's fault, everything else is ours.
func statusFor(err error) int {
	if errors.Is(err, scenario.ErrSpec) || errors.Is(err, fairness.ErrBackend) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}
