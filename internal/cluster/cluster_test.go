package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// testGrid expands a small but non-trivial scenario list: three
// protocols, two stakes, plus one duplicate position to exercise
// in-sweep deduplication fan-out.
func testGrid(t *testing.T) []scenario.Spec {
	t.Helper()
	g := scenario.Grid{
		Base:      scenario.Spec{Blocks: 200, Trials: 20, Seed: 9},
		Protocols: []string{"pow", "mlpos", "slpos"},
		Stake:     []float64{0.2, 0.3},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	dup := specs[0]
	dup.Name = "dup-of-first"
	return append(specs, dup)
}

// startWorker boots one in-process worker node: the real shard protocol
// handlers over a local sweep pipeline, plus the minimal healthz the
// coordinator probes.
func startWorker(t *testing.T, opts sweep.Options, backendName string) (*httptest.Server, *WorkerServer) {
	t.Helper()
	return startRunWorker(t, LocalRunner(opts), backendName)
}

// startRunWorker is startWorker over any shard runner.
func startRunWorker(t *testing.T, run RunFunc, backendName string) (*httptest.Server, *WorkerServer) {
	t.Helper()
	ws := NewWorkerServer(run)
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "backend": backendName,
			"shards_in_flight": ws.InFlight(), "shards_done": ws.Done(),
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, ws
}

// canonicalOutcomes strips the fields that legitimately differ between a
// local and a distributed run — where/when the work ran — leaving
// everything the paper cares about, byte for byte.
func canonicalOutcomes(t *testing.T, rep *sweep.Report) string {
	t.Helper()
	outs := make([]sweep.Outcome, len(rep.Outcomes))
	copy(outs, rep.Outcomes)
	for i := range outs {
		outs[i].ElapsedMS = 0
		outs[i].CacheHit = false
	}
	b, err := json.Marshal(outs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// countGoroutines samples the goroutine count after a settle loop so
// already-exiting goroutines don't read as leaks.
func countGoroutines(settleBelow int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > settleBelow; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestClusterRunMatchesLocalSweepBitIdentical(t *testing.T) {
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1, ws1 := startWorker(t, sweep.Options{}, "montecarlo")
	w2, ws2 := startWorker(t, sweep.Options{}, "montecarlo")
	var streamed atomic.Int64
	rep, err := Run(context.Background(), specs, Options{
		Workers:   []string{w1.URL, w2.URL},
		OnOutcome: func(sweep.Outcome) { streamed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("distributed outcomes differ from local sweep:\n%s\n%s", got, want)
	}
	// The stats must agree too — everything but wall time is a pure
	// function of the scenario list.
	ls, cs := local.Stats, rep.Stats
	if cs.Scenarios != ls.Scenarios || cs.Computed != ls.Computed ||
		cs.CacheHits != ls.CacheHits || cs.TrialsRun != ls.TrialsRun {
		t.Errorf("stats differ: cluster %+v, local %+v", cs, ls)
	}
	if int(streamed.Load()) != len(specs) {
		t.Errorf("observer saw %d outcomes, want %d", streamed.Load(), len(specs))
	}
	// The duplicate position must be an in-sweep hit, exactly like local.
	last := rep.Outcomes[len(specs)-1]
	if !last.CacheHit || last.Name != "dup-of-first" {
		t.Errorf("duplicate position: %+v", last)
	}
	if ws1.Done()+ws2.Done() == 0 {
		t.Error("no worker completed any shard")
	}
	if ws1.InFlight()+ws2.InFlight() != 0 {
		t.Error("in-flight counters did not return to zero")
	}
}

func TestClusterWarmCacheNeverShipsWork(t *testing.T) {
	// Cache-aware scheduling: a coordinator whose cache already holds
	// every work item must answer without touching a single worker — the
	// configured pool is unreachable on purpose.
	specs := testGrid(t)
	cache := sweep.NewCache(64)
	local, err := sweep.Run(specs, sweep.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), specs, Options{
		Workers: []string{"127.0.0.1:1"}, // nothing listens here
		Cache:   cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("warm-cache outcomes differ from local sweep")
	}
	if rep.Stats.Computed != 0 || rep.Stats.CacheHits != len(specs) {
		t.Errorf("warm run stats: %+v", rep.Stats)
	}
	for i, o := range rep.Outcomes {
		if !o.CacheHit {
			t.Errorf("outcome %d not served from cache", i)
		}
	}
}

// flakyWorker wraps a healthy worker node and kills it mid-shard: the
// first claim streams one line and tears the connection, and from then
// on the whole node answers 503 — a crashed process as seen over HTTP.
type flakyWorker struct {
	inner http.Handler
	dead  atomic.Bool
	hits  atomic.Int64
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, "worker crashed", http.StatusServiceUnavailable)
		return
	}
	if r.Method == http.MethodPost && r.URL.Path == "/v1/shard" {
		f.hits.Add(1)
		f.dead.Store(true)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"hash":"torn`) // half a line, then the connection dies
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	f.inner.ServeHTTP(w, r)
}

func TestClusterReassignsShardsFromKilledWorker(t *testing.T) {
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	healthyTr := telemetry.NewTracer(nil)
	healthy, _ := startTracedWorker(t, healthyTr)
	ws := NewWorkerServer(LocalRunner(sweep.Options{}))
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	})
	flaky := &flakyWorker{inner: mux}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)

	coordTr := telemetry.NewTracer(nil)
	before := countGoroutines(0)
	rep, err := Run(context.Background(), specs, Options{
		Workers:     []string{flakySrv.URL, healthy.URL},
		BackoffBase: time.Millisecond, // keep the retry path fast under test
		Tracer:      coordTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpenSpans(t, 0, coordTr, healthyTr)
	if flaky.hits.Load() == 0 {
		t.Fatal("flaky worker was never claimed — the failure path did not run")
	}
	// The merged report must be indistinguishable from an undisturbed
	// local sweep: the killed worker's shard was recomputed elsewhere.
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("outcomes after worker failure differ from local sweep:\n%s\n%s", got, want)
	}
	if rep.Partial {
		t.Error("report marked partial despite successful reassignment")
	}
	if after := countGoroutines(before); after > before {
		t.Errorf("goroutines leaked across worker failure: %d -> %d", before, after)
	}
}

func TestClusterArenaEquilibriumBitIdenticalWithWorkerKill(t *testing.T) {
	// The arena backend through the cluster: an equilibrium report is a
	// pure function of (grid, seed), so the merged distributed report must
	// be bit-identical to a local best-response run — including when a
	// worker is killed mid-run and its shard is recomputed elsewhere.
	g := scenario.Grid{
		Base:      scenario.Spec{Blocks: 300, Trials: 15, Seed: 11, Miners: 5},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.4},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	arenaOpts := func() sweep.Options {
		return sweep.Options{Evaluator: &sweep.ArenaEvaluator{}}
	}
	local, err := sweep.Run(specs, arenaOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range local.Outcomes {
		if o.Arena == nil {
			t.Fatalf("local outcome %d (%s) carries no equilibrium", i, o.Name)
		}
		if !o.Arena.Converged {
			t.Errorf("local outcome %d (%s) did not converge", i, o.Name)
		}
	}

	// Two healthy workers: plain bit-identity, equilibria included
	// (canonicalOutcomes marshals the full Outcome, Arena and all).
	w1, _ := startWorker(t, arenaOpts(), sweep.ArenaBackendName)
	w2, _ := startWorker(t, arenaOpts(), sweep.ArenaBackendName)
	rep, err := Run(context.Background(), specs, Options{
		Workers: []string{w1.URL, w2.URL},
		Backend: sweep.ArenaBackendName,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("distributed arena outcomes differ from local run:\n%s\n%s", got, want)
	}

	// Kill a worker mid-run: the first shard claim tears the connection,
	// the shard is reassigned, and the report must still match local.
	ws := NewWorkerServer(LocalRunner(arenaOpts()))
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": sweep.ArenaBackendName})
	})
	flaky := &flakyWorker{inner: mux}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)

	rep2, err := Run(context.Background(), specs, Options{
		Workers:     []string{flakySrv.URL, w1.URL},
		Backend:     sweep.ArenaBackendName,
		BackoffBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if flaky.hits.Load() == 0 {
		t.Fatal("flaky worker was never claimed — the kill path did not run")
	}
	if rep2.Partial {
		t.Error("report marked partial despite successful reassignment")
	}
	if got, want := canonicalOutcomes(t, rep2), canonicalOutcomes(t, local); got != want {
		t.Errorf("arena outcomes after worker kill differ from local run:\n%s\n%s", got, want)
	}
}

// tamperingRunner computes each shard honestly, then alters every
// outcome before it streams and keeps the honest hash: a worker whose
// answers no longer match the question. claimed closes when it receives
// its first shard.
func tamperingRunner(tamper func(*sweep.Outcome), claimed chan struct{}) RunFunc {
	var once sync.Once
	honest := LocalRunner(sweep.Options{})
	return func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
		once.Do(func() { close(claimed) })
		return honest(ctx, specs, func(o sweep.Outcome) {
			tamper(&o)
			on(o)
		})
	}
}

func TestClusterRejectsTamperedOutcomes(t *testing.T) {
	// The coordinator merges and caches only outcomes it has checked: the
	// run's backend, and a spec that re-hashes to the outcome's hash. A
	// worker that fails either check is quarantined and its shard's
	// remainder goes to the others.
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tampers := []struct {
		name   string
		tamper func(*sweep.Outcome)
	}{
		{"backend", func(o *sweep.Outcome) { o.Backend = "theory" }},
		{"spec", func(o *sweep.Outcome) { o.Spec.Stakes = []float64{0.9, 0.1} }},
	}
	for _, tc := range tampers {
		t.Run(tc.name+"/alone", func(t *testing.T) {
			liar, _ := startRunWorker(t, tamperingRunner(tc.tamper, make(chan struct{})), "montecarlo")
			cache := sweep.NewCache(64)
			metrics := telemetry.NewRegistry()
			rep, err := Run(context.Background(), specs, Options{
				Workers: []string{liar.URL}, Cache: cache, Metrics: metrics,
			})
			if err == nil {
				t.Fatalf("run over a lying worker succeeded: %+v", rep.Outcomes)
			}
			if n := cache.Len(); n != 0 {
				t.Errorf("cache holds %d outcomes from the lying worker", n)
			}
			snap := metrics.Snapshot()
			if snap["fairness_cluster_worker_quarantine_total"] != 1 || snap["fairness_cluster_outcomes_rejected_total"] != 1 {
				t.Errorf("liar not rejected and quarantined once: %v", snap)
			}
		})
		t.Run(tc.name+"/beside-honest", func(t *testing.T) {
			claimed := make(chan struct{})
			liar, _ := startRunWorker(t, tamperingRunner(tc.tamper, claimed), "montecarlo")
			// The honest worker holds its first shard until the liar has
			// one too, so the liar is sure to be claimed from.
			plain := LocalRunner(sweep.Options{})
			honest, _ := startRunWorker(t, func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
				select {
				case <-claimed:
				case <-time.After(10 * time.Second):
				}
				return plain(ctx, specs, on)
			}, "montecarlo")
			cache := sweep.NewCache(64)
			metrics := telemetry.NewRegistry()
			rep, err := Run(context.Background(), specs, Options{
				Workers: []string{liar.URL, honest.URL}, Cache: cache, Metrics: metrics,
				BackoffBase: time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
				t.Errorf("outcomes beside a lying worker differ from local sweep:\n%s\n%s", got, want)
			}
			if got := metrics.Snapshot()["fairness_cluster_worker_quarantine_total"]; got != 1 {
				t.Errorf("%v quarantines, want the liar's one", got)
			}
			// The cache holds the honest outcome of every scenario.
			for _, o := range local.Outcomes {
				cached, ok := cache.Get(sweep.CacheKey("montecarlo", o.Hash))
				o.Name = ""
				got := canonicalOutcomes(t, &sweep.Report{Outcomes: []sweep.Outcome{cached}})
				if want := canonicalOutcomes(t, &sweep.Report{Outcomes: []sweep.Outcome{o}}); !ok || got != want {
					t.Errorf("cache entry %.12s (present %v):\n%s\nwant\n%s", o.Hash, ok, got, want)
				}
			}
		})
	}
}

func TestClusterBackendMismatchRefused(t *testing.T) {
	w, _ := startWorker(t, sweep.Options{Evaluator: &sweep.TheoryEvaluator{}}, "theory")
	_, err := Run(context.Background(), testGrid(t), Options{Workers: []string{w.URL}})
	if !errors.Is(err, ErrBackendMismatch) {
		t.Errorf("err = %v, want ErrBackendMismatch", err)
	}
}

func TestClusterNoLiveWorkers(t *testing.T) {
	_, err := Run(context.Background(), testGrid(t), Options{Workers: []string{"127.0.0.1:1"}})
	if !errors.Is(err, ErrNoWorkers) {
		t.Errorf("err = %v, want ErrNoWorkers", err)
	}
}

func TestClusterPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, _ := startWorker(t, sweep.Options{}, "montecarlo")
	tr := telemetry.NewTracer(nil)
	rep, err := Run(ctx, testGrid(t), Options{Workers: []string{w.URL}, Tracer: tr})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("cancelled cluster run must return a partial report, got %+v", rep)
	}
	requireNoOpenSpans(t, 0, tr)
}

func TestClusterCancelMidShardEndsEverySpan(t *testing.T) {
	// The run is cancelled while its only worker is mid-shard: one
	// outcome streamed, the rest stuck until the claim is cut. The
	// partial report returns and neither side keeps an open span.
	workerTr := telemetry.NewTracer(nil)
	ws := NewWorkerServer(func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
		stats, err := LocalRunner(sweep.Options{})(ctx, specs[:1], on)
		if err == nil {
			<-ctx.Done()
			err = ctx.Err()
		}
		return stats, err
	})
	ws.SetTelemetry("montecarlo", workerTr)
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	coordTr := telemetry.NewTracer(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Run(ctx, testGrid(t), Options{
		Workers:   []string{srv.URL},
		ShardSize: 64,
		Tracer:    coordTr,
		OnOutcome: func(sweep.Outcome) { cancel() },
	})
	if !errors.Is(err, context.Canceled) || rep == nil || !rep.Partial {
		t.Fatalf("mid-shard cancel: err = %v, report %+v", err, rep)
	}
	requireNoOpenSpans(t, 0, coordTr)
	requireNoOpenSpans(t, 5*time.Second, workerTr)
	if evals := spansByName(workerTr.Snapshot("").Spans, "eval"); len(evals) != 1 || evals[0].Attrs["status"] != "torn" {
		t.Errorf("worker eval spans after the cut: %+v", evals)
	}
}

func TestClusterInvalidScenarioRejectedLocally(t *testing.T) {
	_, err := Run(context.Background(), []scenario.Spec{{Protocol: "nope"}}, Options{})
	if !errors.Is(err, scenario.ErrSpec) {
		t.Errorf("err = %v, want ErrSpec", err)
	}
}

// countingGate is a DispatchGate that serialises dispatch (one shard in
// flight at a time, at most capPerGrant items each) and counts its
// acquire/release traffic.
type countingGate struct {
	sem         chan struct{}
	capPerGrant int
	acquires    atomic.Int64
	releases    atomic.Int64
}

func (g *countingGate) Acquire(ctx context.Context, want int) (int, func(), error) {
	select {
	case g.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, func() {}, ctx.Err()
	}
	g.acquires.Add(1)
	if want > g.capPerGrant {
		want = g.capPerGrant
	}
	return want, func() { g.releases.Add(1); <-g.sem }, nil
}

func TestClusterDispatchGatePacesShardsWithoutChangingReport(t *testing.T) {
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := startWorker(t, sweep.Options{}, "montecarlo")
	w2, _ := startWorker(t, sweep.Options{}, "montecarlo")
	gate := &countingGate{sem: make(chan struct{}, 1), capPerGrant: 2}
	tr := telemetry.NewTracer(nil)
	rep, err := Run(context.Background(), specs, Options{
		Workers:   []string{w1.URL, w2.URL},
		Gate:      gate,
		ShardSize: 4, // every claim asks for more than one grant allows
		Tracer:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("gated outcomes differ from local sweep:\n%s\n%s", got, want)
	}
	if gate.acquires.Load() == 0 {
		t.Fatal("gate was never consulted")
	}
	if gate.acquires.Load() != gate.releases.Load() {
		t.Errorf("gate grants leaked: %d acquires, %d releases",
			gate.acquires.Load(), gate.releases.Load())
	}
	// capPerGrant 2 across 6 unique scenarios forces at least 3 shards,
	// and no shard may carry more than the grant.
	if gate.acquires.Load() < 3 {
		t.Errorf("gate cap ignored: only %d acquires", gate.acquires.Load())
	}
	for _, d := range spansByName(tr.Snapshot("").Spans, "dispatch") {
		if n, _ := strconv.Atoi(d.Attrs["scenarios"]); n > gate.capPerGrant {
			t.Errorf("shard of %d scenarios dispatched under a grant of %d", n, gate.capPerGrant)
		}
	}
}

func TestClusterWaitingGaugeOnEmptyPool(t *testing.T) {
	// A registry-backed run with no live worker WAITS — and must say so:
	// the fairness_cluster_waiting gauge rises while the pool is empty
	// and falls once a worker registers and the run completes.
	specs := testGrid(t)
	reg := NewRegistry("montecarlo", 0)
	metrics := telemetry.NewRegistry()

	type result struct {
		rep *sweep.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(context.Background(), specs, Options{
			Registry: reg,
			Metrics:  metrics,
		})
		done <- result{rep, err}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for metrics.Gauge("fairness_cluster_waiting").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("fairness_cluster_waiting never rose while the pool was empty")
		}
		time.Sleep(5 * time.Millisecond)
	}

	w, _ := startWorker(t, sweep.Options{}, "montecarlo")
	if err := reg.Register(w.URL, "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.rep.Stats.Computed == 0 {
		t.Error("late-registered worker computed nothing")
	}
	if v := metrics.Gauge("fairness_cluster_waiting").Value(); v != 0 {
		t.Errorf("fairness_cluster_waiting = %v after completion, want 0", v)
	}
}

func TestShardIDDeterministic(t *testing.T) {
	a := ShardID([]string{"aa", "bb"})
	if a != ShardID([]string{"aa", "bb"}) {
		t.Error("same items, different shard ids")
	}
	if a == ShardID([]string{"bb", "aa"}) {
		t.Error("shard id ignores item order")
	}
	if a == ShardID([]string{"a", "abb"}) {
		t.Error("shard id must separate items, not concatenate them")
	}
}

func TestNormalizeWorkerURL(t *testing.T) {
	cases := map[string]string{
		"localhost:7447":         "http://localhost:7447",
		"http://h:1/":            "http://h:1",
		"https://pool.example/w": "https://pool.example/w",
		"  h:2  ":                "http://h:2",
		"":                       "",
	}
	for in, want := range cases {
		if got := NormalizeWorkerURL(in); got != want {
			t.Errorf("NormalizeWorkerURL(%q) = %q, want %q", in, got, want)
		}
	}
}
