// Command fairctl is the cluster coordinator CLI: it takes the same
// declarative scenario grids fairsweep runs locally — including
// adversarial specs with adversary/network blocks and gamma/fork_rate
// axes, which ship over the shard protocol unchanged — and fans them
// out over a pool of fairnessd worker nodes (internal/cluster), merging
// the workers' streams into one report that is bit-identical — modulo
// timing/cache bookkeeping — to a single-process `fairsweep run` of the
// same spec.
//
// The pool is self-organizing: `run -listen` starts a registration
// listener and workers announce THEMSELVES (`fairnessd -register`),
// heartbeat to stay in the pool, and deregister on shutdown — no
// hand-maintained worker list. A static `-workers` CSV is still
// accepted, alone or alongside `-listen`. Shard sizes adapt to each
// worker's measured scenarios/sec, and `watch` renders the live
// progress of a running sweep from what every process already serves:
// /metrics counters, worker /v1/healthz and the open spans in
// /v1/traces.
//
// Usage:
//
//	fairctl run -listen :7800 [flags] spec.json
//	fairctl run -workers host1:7447,host2:7447 [flags] spec.json
//	fairctl watch -coordinator http://host:7800 [-workers CSV]
//	fairctl status -workers host1:7447,host2:7447
//	fairctl top -url http://host:7447 [-interval D] [-once]
//	fairctl trace -server http://host:7447 [-sources CSV] JOB_ID|TRACE_ID
//	fairctl submit -server http://host:7447 [-tenant T] [-name N] [-wait] spec.json
//	fairctl jobs -server http://host:7447 [-tenant T] [-state S]
//	fairctl cancel -server http://host:7447 JOB_ID
//	fairctl results -server http://host:7447 [-json|-ndjson] JOB_ID
//
// The job-service commands talk to a fairnessd started with -jobs: jobs
// from many tenants share the daemon's engine (or, with -jobs-cluster,
// its registered worker pool) under weighted fair-share scheduling with
// per-tenant quotas and result retention. `results -ndjson` emits the
// same outcome-per-line shape as `fairsweep run -ndjson`, so a job's
// merged report diffs clean against a local sweep of the same spec
// after dropping the timing/cache fields.
//
// Run flags:
//
//	-listen ADDR         registration listener: workers join via POST
//	                     /v1/register; it also serves /metrics and
//	                     /v1/traces, which `watch` reads
//	-workers CSV         static fairnessd base URLs (optional with -listen)
//	-spec FILE           JSON grid or scenario array (or a positional file)
//	-backend NAME        backend every worker must run: montecarlo
//	                     (default), theory or chainsim — mismatched
//	                     workers are refused
//	-cache-dir DIR       coordinator-side disk cache; point it at the
//	                     directory the workers share and warm work items
//	                     are never shipped at all
//	-cache-max-bytes N   size-cap the coordinator cache (LRU eviction)
//	-shard-size N        pin work items per shard (0 = adaptive sizing)
//	-shard-target D      adaptive-sizing wall-time target per shard
//	-lease D             per-shard stream-inactivity lease; a worker that
//	                     stalls longer loses the shard
//	-retries N           attempts per work item before the run fails
//	-progress            print live progress lines to stderr
//	-trace FILE          write the run's NDJSON span events — the sweep
//	                     span and its pool_wait, dispatch and merge
//	                     children — to FILE ("-" = stderr)
//	-pprof               with -listen: mount net/http/pprof on the
//	                     coordinator mux (the listener also serves
//	                     GET /metrics with the run's registry)
//	-seed S              sweep base seed for grid specs
//	-json / -ndjson      report as JSON / stream outcomes as NDJSON
//	-out FILE            also write the JSON report to FILE
//
// Failure semantics: a worker that dies (or stalls past its lease)
// mid-shard loses only the shard's undelivered remainder — everything
// it already streamed stays merged, the remainder re-enters the shared
// queue for any live worker, and the merged report is unchanged. A
// registered worker that comes back later simply re-registers. The run
// fails only when a work item exhausts its retry budget, a static-only
// pool loses every worker, or a worker is misconfigured (wrong
// backend). A registry-backed run with no workers waits for the first
// registration instead of failing.
//
// Example session:
//
//	fairctl run -listen :7800 grid.json &
//	fairnessd -addr :7447 -register http://127.0.0.1:7800 -cache-dir /shared/cache &
//	fairnessd -addr :7448 -register http://127.0.0.1:7800 -cache-dir /shared/cache &
//	fairctl watch -coordinator http://127.0.0.1:7800
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/table"
	"repro/internal/telemetry"
)

// stdout/stderr are swapped by tests; stderr carries summaries in
// -ndjson mode so stdout stays machine-parseable. netListen opens the
// `run -listen` listener, and tests swap it to watch the connections.
var (
	stdout    io.Writer = os.Stdout
	stderr    io.Writer = os.Stderr
	netListen           = net.Listen
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fairctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:])
	case "watch":
		return watchCmd(args[1:])
	case "status":
		return statusCmd(args[1:])
	case "top":
		return topCmd(args[1:])
	case "trace":
		return traceCmd(args[1:])
	case "submit":
		return submitCmd(args[1:])
	case "jobs":
		return jobsCmd(args[1:])
	case "cancel":
		return cancelCmd(args[1:])
	case "results":
		return resultsCmd(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// signalContext cancels on SIGINT/SIGTERM so an interrupted distributed
// run reports what its workers finished.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// splitWorkers parses the -workers CSV into base URLs.
func splitWorkers(csv string) []string {
	var out []string
	for _, w := range strings.Split(csv, ",") {
		if u := cluster.NormalizeWorkerURL(w); u != "" {
			out = append(out, u)
		}
	}
	return out
}

// loadSpecs reads a grid or scenario-array file — the same two formats
// fairsweep and fairnessd accept — into a validated scenario list.
func loadSpecs(path string, seed uint64) ([]fairness.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return scenario.DecodeSpecsOrGrid(data, seed)
}

// specPath resolves -spec against a positional file argument.
func specPath(specFlag string, fs *flag.FlagSet) (string, error) {
	path := specFlag
	if fs.NArg() > 0 {
		if path != "" {
			return "", fmt.Errorf("both -spec and a positional spec file given")
		}
		path = fs.Arg(0)
	}
	if path == "" {
		return "", fmt.Errorf("no spec: pass -spec FILE or a positional spec file")
	}
	return path, nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	listen := fs.String("listen", "", "registration listener address (workers self-register via /v1/register; /metrics and /v1/traces feed fairctl watch)")
	workers := fs.String("workers", "", "static fairnessd worker base URLs (CSV; optional with -listen)")
	spec := fs.String("spec", "", "JSON grid or scenario-array file")
	backend := fs.String("backend", "montecarlo", "backend every worker must run: montecarlo, theory, chainsim, arena")
	cacheDir := fs.String("cache-dir", "", "coordinator-side disk result cache (share the workers' dir for free warm starts)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "size cap for -cache-dir: evict LRU entries beyond N bytes (0 = unbounded)")
	shardSize := fs.Int("shard-size", 0, "pin work items per shard (0 = adaptive per-worker sizing)")
	shardTarget := fs.Duration("shard-target", 0, "adaptive-sizing wall-time target per shard (0 = 1.5s)")
	lease := fs.Duration("lease", 0, "per-shard stream-inactivity lease (0 = 5m)")
	retries := fs.Int("retries", 0, "attempts per work item before the run fails (0 = default 3)")
	progress := fs.Bool("progress", false, "print live progress lines to stderr")
	traceFile := fs.String("trace", "", "write NDJSON span events (sweep, pool_wait, dispatch, merge) to FILE (\"-\" = stderr)")
	pprofFlag := fs.Bool("pprof", false, "with -listen: mount net/http/pprof on the coordinator mux")
	seed := fs.Uint64("seed", 1, "sweep base seed for grid specs")
	asJSON := fs.Bool("json", false, "print the report as JSON")
	asNDJSON := fs.Bool("ndjson", false, "stream outcomes as NDJSON lines as they complete")
	outFile := fs.String("out", "", "also write the JSON report to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pool := splitWorkers(*workers)
	if len(pool) == 0 && *listen == "" {
		return fmt.Errorf("no workers: pass -listen ADDR (self-registration) and/or -workers host1:port,host2:port")
	}
	path, err := specPath(*spec, fs)
	if err != nil {
		return err
	}
	specs, err := loadSpecs(path, *seed)
	if err != nil {
		return err
	}
	// In cluster mode the evaluator never runs locally — it names the
	// backend the workers must match and the cache namespace.
	ev, err := fairness.BackendByName(*backend)
	if err != nil {
		return err
	}

	ctx, stop := signalContext()
	defer stop()

	clusterOpts := fairness.ClusterOptions{
		Workers:         pool,
		ShardSize:       *shardSize,
		TargetShardTime: *shardTarget,
		LeaseTTL:        *lease,
		MaxAttempts:     *retries,
	}
	var engOpts []fairness.EngineOption

	// One registry for the whole run: the engine's sweep/cluster counters
	// land here and the coordinator's /metrics endpoint serves it.
	metrics := fairness.NewMetricsRegistry()
	var tracer *fairness.Tracer
	if *traceFile != "" {
		w, closeTrace, err := traceWriter(*traceFile)
		if err != nil {
			return err
		}
		defer closeTrace()
		tracer = fairness.NewTracerWithMetrics(w, metrics)
	}
	// The run's flight recorder: coordinator-side spans (sweep, gate_wait,
	// dispatch, merge), served at GET /v1/traces on the -listen mux so
	// `fairctl trace` can assemble the full tree against the workers' and
	// `fairctl watch` can list the shards in flight.
	recorder := fairness.NewFlightRecorder(0)
	engOpts = append(engOpts, fairness.WithTelemetry(metrics, tracer, recorder))

	// -listen: boot the registration listener so workers can join (and
	// leave) on their own; its /metrics and /v1/traces feed `watch`.
	if *listen != "" {
		reg := fairness.NewClusterRegistry(*backend, 0)
		regSrv := fairness.NewClusterRegistryServer(reg)
		mux := http.NewServeMux()
		regSrv.Register(mux)
		mux.Handle("GET /metrics", fairness.MetricsHandler(metrics))
		mux.Handle("GET /v1/traces", fairness.TracesHandler(recorder))
		if *pprofFlag {
			telemetry.RegisterPprof(mux)
		}
		ln, err := netListen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("coordinator listener: %w", err)
		}
		httpSrv := cluster.NewHTTPServer(mux)
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		clusterOpts.Registry = reg
		fmt.Fprintf(stderr, "coordinator listening on %s (POST /v1/register to join; GET /metrics and /v1/traces to watch)\n", ln.Addr())
		if len(pool) == 0 {
			fmt.Fprintln(stderr, "waiting for workers to register...")
		}
	}
	engOpts = append(engOpts, fairness.WithCluster(clusterOpts))

	if *cacheDir != "" {
		disk, err := fairness.NewDiskCache(*cacheDir)
		if err != nil {
			return err
		}
		if *cacheMaxBytes > 0 {
			disk.SetMaxBytes(*cacheMaxBytes)
		}
		engOpts = append(engOpts, fairness.WithCache(disk))
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

	stopProgress := func() {}
	if *progress {
		stopProgress = progressPrinter(stderr, metrics, recorder)
	}
	rep, err := eng.Sweep(ctx, specs)
	stopProgress()
	if err != nil {
		if rep != nil && rep.Partial {
			fmt.Fprintf(stderr, "cluster run interrupted: %s\n", rep.Summary())
		}
		return err
	}
	summary := rep.Summary()
	if n := len(pool); n > 0 {
		summary = fmt.Sprintf("%s across %d static workers", summary, n)
	}
	switch {
	case *asNDJSON:
		fmt.Fprintln(stderr, summary)
	case *asJSON:
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
		fmt.Fprintln(stdout, summary)
	default:
		fmt.Fprintln(stdout, rep.Table())
		fmt.Fprintln(stdout, summary)
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

// progressPrinter prints a progress line to w every 500ms from the
// run's own registry and recorder — the -progress stderr ticker. The
// returned stop ends the ticker and prints the final line.
func progressPrinter(w io.Writer, metrics *fairness.MetricsRegistry, rec *fairness.FlightRecorder) (stop func()) {
	line := func() {
		v := newClusterView(metrics.Snapshot(), rec.Open(""), rec.Spans(""))
		fmt.Fprintf(w, "progress: %s\n", v)
	}
	tick := time.NewTicker(500 * time.Millisecond)
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for {
			select {
			case <-tick.C:
				line()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		tick.Stop()
		close(quit)
		<-exited
		line()
	}
}

// clusterView is a coordinator's progress as its fairness_cluster_*
// counters and its coordinator spans tell it: the open sweep span
// carries the run's unique work-item count, open dispatch spans are the
// shards in flight, and the run is done once its sweep span has ended.
type clusterView struct {
	delivered, total, localHits       int
	claimed, acked, requeued, workers int
	done                              bool
	shards                            []fairness.SpanRecord
}

func newClusterView(series map[string]float64, open, spans []fairness.SpanRecord) clusterView {
	v := clusterView{
		delivered: int(series["fairness_cluster_delivered_total"]),
		localHits: int(series["fairness_cluster_local_cache_hits_total"]),
		claimed:   int(series["fairness_cluster_shards_claimed_total"]),
		acked:     int(series["fairness_cluster_shards_acked_total"]),
		requeued:  int(series["fairness_cluster_shards_requeued_total"]),
		workers:   int(series["fairness_cluster_workers"]),
	}
	running := false
	for _, s := range open {
		switch {
		case s.Service != "coordinator":
		case s.Name == "sweep":
			running = true
			n, _ := strconv.Atoi(s.Attrs["unique"])
			v.total += n
		case s.Name == "dispatch":
			v.shards = append(v.shards, s)
		}
	}
	if running {
		return v
	}
	for _, s := range spans {
		if s.Service == "coordinator" && s.Name == "sweep" {
			v.done = true
			v.total, _ = strconv.Atoi(s.Attrs["unique"])
		}
	}
	return v
}

func (v clusterView) String() string {
	return fmt.Sprintf("%d/%d delivered · %d local cache hits · shards %d claimed / %d acked / %d requeued · %d workers",
		v.delivered, v.total, v.localHits, v.claimed, v.acked, v.requeued, v.workers)
}

// tracesBody is the part of a GET /v1/traces response fairctl reads.
type tracesBody struct {
	Spans []fairness.SpanRecord `json:"spans"`
	Open  []fairness.SpanRecord `json:"open"`
}

// getJSON fetches one JSON document with a bounded timeout and size (a
// full 4096-span /v1/traces body runs past 1 MiB).
func getJSON(ctx context.Context, url string, v any) error {
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(v)
}

// watchCmd polls a coordinator's /metrics and /v1/traces and each
// worker's /v1/healthz and /v1/traces, and renders the shards in flight
// — the operator's view of a running distributed sweep.
func watchCmd(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	coordinator := fs.String("coordinator", "", "coordinator base URL (fairctl run -listen) to poll for run progress")
	workers := fs.String("workers", "", "fairnessd worker base URLs (CSV) to poll for per-worker progress")
	interval := fs.Duration("interval", time.Second, "poll interval")
	once := fs.Bool("once", false, "poll once and exit (scripting/CI)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	coord := cluster.NormalizeWorkerURL(*coordinator)
	pool := splitWorkers(*workers)
	if coord == "" && len(pool) == 0 {
		return fmt.Errorf("nothing to watch: pass -coordinator URL and/or -workers CSV")
	}
	ctx, stop := signalContext()
	defer stop()
	for {
		if done := watchTick(ctx, coord, pool); *once || done {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// watchTick renders one watch frame; it reports true once the
// coordinator's sweep span has ended.
func watchTick(ctx context.Context, coord string, pool []string) bool {
	now := time.Now().Format("15:04:05")
	done := false
	if coord != "" {
		var tr tracesBody
		series, err := fetchMetrics(ctx, coord+"/metrics")
		if err == nil {
			err = getJSON(ctx, coord+"/v1/traces", &tr)
		}
		if err != nil {
			fmt.Fprintf(stdout, "[%s] coordinator %s: %v\n", now, coord, err)
		} else {
			v := newClusterView(series, tr.Open, tr.Spans)
			state := "running"
			if v.done {
				state, done = "done", true
			}
			fmt.Fprintf(stdout, "[%s] coordinator %s: %s · %s\n", now, coord, state, v)
			if len(v.shards) > 0 {
				tb := table.New("Shard", "Worker", "Scenarios", "Age(s)").
					AlignAll(table.Right).SetAlign(0, table.Left).SetAlign(1, table.Left)
				for _, sh := range v.shards {
					tb.AddRow(fmt.Sprintf("%.12s", sh.Attrs["shard"]), sh.Attrs["worker"],
						sh.Attrs["scenarios"], fmt.Sprintf("%.1f", sh.DurationMS/1000))
				}
				fmt.Fprintln(stdout, tb.String())
			}
		}
	}
	for _, h := range fairness.ClusterStatus(ctx, pool) {
		if !h.OK {
			fmt.Fprintf(stdout, "[%s] worker %s: %s\n", now, h.URL, h.Error)
			continue
		}
		fmt.Fprintf(stdout, "[%s] worker %s: %d in-flight · %d done · %d acked · %d streamed · %.2f scenarios/s\n",
			now, h.URL, h.ShardsInFlight, h.ShardsDone, h.ShardsAcked, h.OutcomesStreamed, h.ScenariosPerSec)
		var tr tracesBody
		if err := getJSON(ctx, h.URL+"/v1/traces", &tr); err != nil {
			fmt.Fprintf(stdout, "    %v\n", err)
			continue
		}
		// An eval span is a claimed shard; once its stream child opens,
		// outcomes are flowing back.
		streaming := make(map[string]bool)
		for _, s := range tr.Open {
			if s.Name == "stream" {
				streaming[s.ParentID] = true
			}
		}
		for _, s := range tr.Open {
			if s.Name != "eval" {
				continue
			}
			state := "claimed"
			if streaming[s.SpanID] {
				state = "streaming"
			}
			fmt.Fprintf(stdout, "    shard %.12s: %s scenarios, %s, %.1fs\n",
				s.Attrs["shard"], s.Attrs["scenarios"], state, s.DurationMS/1000)
		}
	}
	if done {
		fmt.Fprintln(stdout, "run complete")
	}
	return done
}

func statusCmd(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	workers := fs.String("workers", "", "fairnessd worker base URLs (CSV, required)")
	asJSON := fs.Bool("json", false, "print worker health as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pool := splitWorkers(*workers)
	if len(pool) == 0 {
		return fmt.Errorf("no workers: pass -workers host1:port,host2:port")
	}
	ctx, stop := signalContext()
	defer stop()
	health := fairness.ClusterStatus(ctx, pool)
	if *asJSON {
		data, err := json.MarshalIndent(health, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return nil
	}
	tb := table.New("Worker", "Status", "Backend", "Cache", "In-flight", "Done", "Acked", "Streamed", "Scen/s", "Uptime(s)").
		AlignAll(table.Right).SetAlign(0, table.Left).SetAlign(1, table.Left)
	up := 0
	for _, h := range health {
		status := "ok"
		if !h.OK {
			status = "DOWN: " + h.Error
		} else {
			up++
		}
		tb.AddRow(h.URL, status, h.Backend, h.Cache,
			fmt.Sprintf("%d", h.ShardsInFlight), fmt.Sprintf("%d", h.ShardsDone),
			fmt.Sprintf("%d", h.ShardsAcked), fmt.Sprintf("%d", h.OutcomesStreamed),
			fmt.Sprintf("%.2f", h.ScenariosPerSec),
			fmt.Sprintf("%.0f", float64(h.UptimeMS)/1000))
	}
	fmt.Fprintln(stdout, tb.String())
	fmt.Fprintf(stdout, "%d/%d workers up\n", up, len(health))
	if up == 0 {
		return fmt.Errorf("no workers up")
	}
	return nil
}

// topCmd polls a /metrics endpoint (a fairnessd worker or a `fairctl
// run -listen` coordinator) and renders the fairness_* series as a live
// table, with a per-second rate column for counters derived from
// successive polls — a minimal `top` for sweep telemetry that needs no
// Prometheus server.
func topCmd(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	url := fs.String("url", "", "base URL serving /metrics (fairnessd, or fairctl run -listen)")
	prefix := fs.String("prefix", "fairness_", "only show series whose name starts with this prefix")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "poll once and exit (scripting/CI)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := cluster.NormalizeWorkerURL(*url)
	if base == "" {
		return fmt.Errorf("no endpoint: pass -url http://host:port")
	}
	ctx, stop := signalContext()
	defer stop()
	var (
		prev   map[string]float64
		prevAt time.Time
	)
	for {
		series, err := fetchMetrics(ctx, base+"/metrics")
		if err != nil {
			if *once {
				return err
			}
			fmt.Fprintf(stdout, "[%s] %s: %v\n", time.Now().Format("15:04:05"), base, err)
		} else {
			now := time.Now()
			ids := make([]string, 0, len(series))
			for id := range series {
				if strings.HasPrefix(id, *prefix) {
					ids = append(ids, id)
				}
			}
			sort.Strings(ids)
			tb := table.New("Series", "Value", "Rate/s").
				AlignAll(table.Right).SetAlign(0, table.Left)
			for _, id := range ids {
				rate := ""
				// Rates only make sense for cumulative counters, and only
				// once two polls straddle a measurable window. A negative
				// delta means the counter restarted from zero (worker
				// restart) — mark the reset instead of printing a
				// nonsense negative rate; the next poll re-baselines.
				if strings.Contains(id, "_total") && prev != nil {
					if dt := now.Sub(prevAt).Seconds(); dt > 0 {
						if p, ok := prev[id]; ok {
							if d := series[id] - p; d < 0 {
								rate = "reset"
							} else {
								rate = fmt.Sprintf("%.2f", d/dt)
							}
						}
					}
				}
				tb.AddRow(id, strconv.FormatFloat(series[id], 'g', -1, 64), rate)
			}
			fmt.Fprintf(stdout, "[%s] %s — %d series\n%s\n",
				now.Format("15:04:05"), base, len(ids), tb.String())
			prev, prevAt = series, now
		}
		if *once {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// traceCmd fetches one distributed trace from any number of flight
// recorders (the job server, the coordinator's -listen mux, worker
// /v1/traces endpoints), assembles the span tree, and prints it with a
// per-stage breakdown and the critical path. The argument is a job id
// (j-...; resolved to its trace via GET /v1/jobs/{id}) or a raw
// trace id.
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	server := fs.String("server", "", "fairnessd base URL — resolves job ids and serves as a trace source")
	sources := fs.String("sources", "", "extra /v1/traces sources (CSV: coordinator and worker base URLs)")
	asJSON := fs.Bool("json", false, "print the merged span records as JSON instead of the rendered tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fairctl trace [-server URL] [-sources CSV] JOB_ID|TRACE_ID")
	}
	id := fs.Arg(0)
	base := cluster.NormalizeWorkerURL(*server)
	srcs := splitWorkers(*sources)
	if base != "" {
		srcs = append([]string{base}, srcs...)
	}
	if len(srcs) == 0 {
		return fmt.Errorf("no trace sources: pass -server URL and/or -sources CSV")
	}
	ctx, stop := signalContext()
	defer stop()

	traceID := id
	if strings.HasPrefix(id, "j-") {
		if base == "" {
			return fmt.Errorf("resolving job id %s needs -server", id)
		}
		info, err := fairness.NewJobClient(base).Get(ctx, id)
		if err != nil {
			return err
		}
		if info.TraceID == "" {
			return fmt.Errorf("job %s carries no trace id", id)
		}
		traceID = info.TraceID
	}

	// Overlapping sources are fine: BuildSpanTree deduplicates by
	// span_id, so fetching the same recorder through two URLs is
	// harmless.
	var spans []fairness.SpanRecord
	fetched := 0
	for _, src := range srcs {
		var resp tracesBody
		if err := getJSON(ctx, src+"/v1/traces?trace_id="+traceID, &resp); err != nil {
			fmt.Fprintf(stderr, "trace: %s: %v (skipped)\n", src, err)
			continue
		}
		fetched++
		spans = append(spans, resp.Spans...)
	}
	if fetched == 0 {
		return fmt.Errorf("no reachable trace source")
	}
	if len(spans) == 0 {
		return fmt.Errorf("no spans for trace %s (flight recorders hold only recent history)", traceID)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(spans)
	}

	tree := fairness.BuildSpanTree(spans)
	fmt.Fprintf(stdout, "trace %s — %d spans, %d root(s)\n\n", traceID, tree.Spans, len(tree.Roots))
	for _, root := range tree.Roots {
		printSpanNode(root, 0)
	}

	// Per-stage self-time breakdown: each stage's total is wall time not
	// covered by a child span, so the stages partition the root's
	// duration and the percentages reconcile against the makespan.
	var totalMS float64
	stages := map[string]float64{}
	for _, root := range tree.Roots {
		totalMS += root.DurationMS
		for name, ms := range root.StageBreakdown() {
			stages[name] += ms
		}
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return stages[names[a]] > stages[names[b]] })
	fmt.Fprintf(stdout, "\nstage breakdown (self time, %% of %.1fms makespan):\n", totalMS)
	tb := table.New("Stage", "Self ms", "%").AlignAll(table.Right).SetAlign(0, table.Left)
	for _, name := range names {
		pct := 0.0
		if totalMS > 0 {
			pct = 100 * stages[name] / totalMS
		}
		tb.AddRow(name, fmt.Sprintf("%.1f", stages[name]), fmt.Sprintf("%.1f", pct))
	}
	fmt.Fprintln(stdout, tb.String())

	fmt.Fprintln(stdout, "critical path (the chain that determined when the run ended):")
	for i, n := range tree.Roots[0].CriticalPath() {
		fmt.Fprintf(stdout, "  %s%s [%s] %.1fms%s\n",
			strings.Repeat("  ", i), n.Name, n.Service, n.DurationMS, spanAttrSuffix(n.Attrs))
	}
	return nil
}

// printSpanNode renders one span-tree node (and its subtree) as an
// indented line: name, service, duration, attributes.
func printSpanNode(n *fairness.SpanNode, depth int) {
	fmt.Fprintf(stdout, "%s%s [%s] %.1fms%s\n",
		strings.Repeat("  ", depth), n.Name, n.Service, n.DurationMS, spanAttrSuffix(n.Attrs))
	for _, c := range n.Children {
		printSpanNode(c, depth+1)
	}
}

// spanAttrSuffix renders a span's attributes as sorted " k=v" pairs.
func spanAttrSuffix(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, attrs[k])
	}
	return b.String()
}

// fetchMetrics scrapes one Prometheus text exposition into a flat
// series-id -> value map.
func fetchMetrics(ctx context.Context, url string) (map[string]float64, error) {
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return fairness.ParseMetricsText(io.LimitReader(resp.Body, 4<<20))
}

// Job-service commands: clients of a fairnessd -jobs daemon's /v1/jobs
// API (or any server mounted with fairness.WithJobServer).

// submitCmd posts one named sweep job and prints its snapshot; with
// -wait it polls until the job is terminal and prints the final state.
//
// Example — submit a grid for tenant "acme" and wait for it:
//
//	fairctl submit -server 127.0.0.1:7447 -tenant acme -name nightly \
//	    -priority 1 -wait grid.json
func submitCmd(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	server := fs.String("server", "", "job server base URL (fairnessd -jobs; default 127.0.0.1:7447)")
	spec := fs.String("spec", "", "JSON grid or scenario-array file")
	name := fs.String("name", "", "job name (for humans; need not be unique)")
	tenant := fs.String("tenant", "", `submitting tenant ("" = default)`)
	priority := fs.Int("priority", 0, "fair-share priority bias: each step doubles/halves the tenant weight (clamped to ±3)")
	deadline := fs.Duration("deadline", 0, "soft deadline from now; urgency boosts the job's weight (never preempts)")
	seed := fs.Uint64("seed", 1, "sweep base seed for grid specs")
	wait := fs.Bool("wait", false, "poll until the job reaches a terminal state")
	poll := fs.Duration("poll", 0, "-wait poll interval (0 = 200ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path, err := specPath(*spec, fs)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	client := fairness.NewJobClient(*server)
	info, err := client.Submit(ctx, fairness.JobSubmitBody{
		Name:       *name,
		Tenant:     *tenant,
		Priority:   *priority,
		DeadlineMS: deadline.Milliseconds(),
		Seed:       *seed,
		Spec:       json.RawMessage(data),
	})
	if err != nil {
		return err
	}
	if *wait {
		fmt.Fprintf(stderr, "submitted %s (%d scenarios), waiting...\n", info.ID, info.Scenarios)
		if info, err = client.Wait(ctx, info.ID, *poll); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(info)
}

// jobsCmd lists jobs in submission order, optionally filtered.
func jobsCmd(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	server := fs.String("server", "", "job server base URL (default 127.0.0.1:7447)")
	tenant := fs.String("tenant", "", "only this tenant's jobs")
	state := fs.String("state", "", "only jobs in this state (queued, running, done, failed, cancelled)")
	asJSON := fs.Bool("json", false, "print the job list as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	infos, err := fairness.NewJobClient(*server).List(ctx, *tenant, fairness.JobState(*state))
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(infos, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return nil
	}
	tb := table.New("ID", "Name", "Tenant", "State", "Scenarios", "Submitted", "Took(s)").
		AlignAll(table.Right).SetAlign(0, table.Left).SetAlign(1, table.Left).
		SetAlign(2, table.Left).SetAlign(3, table.Left)
	for _, j := range infos {
		state := string(j.State)
		if j.Partial {
			state += " (partial)"
		}
		took := ""
		if j.FinishedMS > 0 && j.StartedMS > 0 {
			took = fmt.Sprintf("%.1f", float64(j.FinishedMS-j.StartedMS)/1000)
		}
		tb.AddRow(j.ID, j.Name, j.Tenant, state, fmt.Sprintf("%d", j.Scenarios),
			time.UnixMilli(j.SubmittedMS).Format("15:04:05"), took)
	}
	fmt.Fprintln(stdout, tb.String())
	fmt.Fprintf(stdout, "%d jobs\n", len(infos))
	return nil
}

// cancelCmd requests cancellation of one job; partial results computed
// so far stay retrievable via `fairctl results`.
func cancelCmd(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	server := fs.String("server", "", "job server base URL (default 127.0.0.1:7447)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fairctl cancel [-server URL] JOB_ID")
	}
	ctx, stop := signalContext()
	defer stop()
	info, err := fairness.NewJobClient(*server).Cancel(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cancel requested: %s was %s\n", info.ID, info.State)
	return nil
}

// resultsCmd retrieves a finished job's merged outcomes, walking the
// result pages. -ndjson streams one outcome JSON per line — the same
// shape `fairsweep run -ndjson` emits, so the two are diffable after
// normalizing the timing/cache fields.
func resultsCmd(args []string) error {
	fs := flag.NewFlagSet("results", flag.ContinueOnError)
	server := fs.String("server", "", "job server base URL (default 127.0.0.1:7447)")
	asJSON := fs.Bool("json", false, "print the merged report as JSON")
	asNDJSON := fs.Bool("ndjson", false, "stream outcomes as NDJSON lines")
	outFile := fs.String("out", "", "also write the JSON report to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fairctl results [-server URL] [-json|-ndjson] JOB_ID")
	}
	ctx, stop := signalContext()
	defer stop()
	info, outcomes, err := fairness.NewJobClient(*server).Results(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	rep := &fairness.SweepReport{Outcomes: outcomes, Stats: info.Stats, Partial: info.Partial}
	summary := fmt.Sprintf("job %s (%s): %s", info.ID, info.State, rep.Summary())
	switch {
	case *asNDJSON:
		enc := json.NewEncoder(stdout)
		for _, o := range outcomes {
			if err := enc.Encode(o); err != nil {
				return err
			}
		}
		fmt.Fprintln(stderr, summary)
	case *asJSON:
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
		fmt.Fprintln(stdout, summary)
	default:
		fmt.Fprintln(stdout, rep.Table())
		fmt.Fprintln(stdout, summary)
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

func usage() {
	fmt.Fprint(os.Stderr, strings.TrimLeft(`
fairctl — coordinate fairness-scenario sweeps across fairnessd workers

commands:
  run -listen ADDR|-workers CSV [flags] spec.json
                                         distribute the sweep, print the report
  watch -coordinator URL [-workers CSV]  live progress and in-flight shards of a
                                         running sweep
  status -workers CSV [-json]            probe every worker's /v1/healthz
  top -url URL [-interval D] [-once]     live fairness_* metrics of one /metrics
                                         endpoint, with counter rates
  trace [-server URL] [-sources CSV] [-json] JOB_ID|TRACE_ID
                                         assemble one distributed trace from
                                         /v1/traces flight recorders: span tree,
                                         per-stage breakdown, critical path

job-service commands (against fairnessd -jobs):
  submit [-server URL] [-name N] [-tenant T] [-priority P] [-deadline D]
         [-wait] spec.json              submit a named sweep job
  jobs [-server URL] [-tenant T] [-state S] [-json]
                                         list jobs in submission order
  cancel [-server URL] JOB_ID            cancel (partial results retained)
  results [-server URL] [-json|-ndjson] [-out FILE] JOB_ID
                                         paginated merged outcomes of a job

run flags:
  -listen ADDR  -workers CSV  -spec FILE  -backend NAME  -cache-dir DIR
  -cache-max-bytes N  -shard-size N  -shard-target D  -lease D  -retries N
  -progress  -trace FILE  -pprof  -seed S  -json  -ndjson  -out FILE
`, "\n"))
}
