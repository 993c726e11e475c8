package fairness

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/sweep"
)

// TestEvaluateEmptyAllocationRegression is the regression test for the
// empty/nil-initial crash path: Engine.Evaluate must return a validation
// error, never panic or surface an internal config error.
func TestEvaluateEmptyAllocationRegression(t *testing.T) {
	for _, initial := range [][]float64{nil, {}} {
		_, err := NewEngine().Evaluate(context.Background(), NewPoW(0.01), initial)
		if !errors.Is(err, ErrInvalidAllocation) {
			t.Errorf("Engine.Evaluate(%v) err = %v, want ErrInvalidAllocation", initial, err)
		}
	}
	// All-zero totals are equally unassessable.
	if _, err := NewEngine().Evaluate(context.Background(), NewPoW(0.01), []float64{0, 0}); !errors.Is(err, ErrInvalidAllocation) {
		t.Errorf("zero-total err = %v, want ErrInvalidAllocation", err)
	}
}

func TestEngineSeedZeroIsDistinctFromUnset(t *testing.T) {
	// The option API distinguishes unset from zero: unset means seed 1,
	// and WithSeed(0) must actually run seed 0.
	eng := NewEngine()
	ctx := context.Background()
	p := func() Protocol { return NewMLPoS(0.1) }
	unset, err := eng.Evaluate(ctx, p(), TwoMiner(0.2), WithTrials(150), WithBlocks(400))
	if err != nil {
		t.Fatal(err)
	}
	seed1, err := eng.Evaluate(ctx, p(), TwoMiner(0.2), WithTrials(150), WithBlocks(400), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	seed0, err := eng.Evaluate(ctx, p(), TwoMiner(0.2), WithTrials(150), WithBlocks(400), WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	if unset != seed1 {
		t.Errorf("unset seed should default to 1:\n%+v\n%+v", unset, seed1)
	}
	if seed0 == seed1 {
		t.Errorf("WithSeed(0) produced the seed-1 run — zero is being treated as unset: %+v", seed0)
	}
}

func TestEngineZeroFairnessParamsHonoured(t *testing.T) {
	// ε = 0 collapses the fair area to the single point {a}: continuous
	// protocols are then (almost) never fair. A zero Params must be
	// honoured, not read as "use DefaultParams".
	v, err := NewEngine().Evaluate(context.Background(), NewMLPoS(0.01), TwoMiner(0.2),
		WithTrials(100), WithBlocks(300), WithFairnessParams(Params{Eps: 0, Delta: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if v.RobustFair || v.UnfairProbability < 0.99 {
		t.Errorf("zero params should collapse the fair area: %+v", v)
	}
}

func TestEngineEvaluateCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewEngine().Evaluate(ctx, NewPoW(0.01), TwoMiner(0.2))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestEngineObserverAndEvaluateScenario(t *testing.T) {
	var seen []string
	eng := NewEngine(
		WithCache(NewSweepCache(16)),
		WithObserver(func(o SweepOutcome) { seen = append(seen, o.Name) }),
		WithWorkers(1),
	)
	spec := Scenario{Name: "probe", Protocol: "pow", Stake: 0.2, Blocks: 300, Trials: 30, Seed: 4}
	out, err := eng.EvaluateScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "probe" || out.CacheHit {
		t.Errorf("first evaluation: %+v", out)
	}
	again, err := eng.EvaluateScenario(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("second evaluation should hit the engine cache")
	}
	if len(seen) != 2 || seen[0] != "probe" {
		t.Errorf("observer saw %v", seen)
	}
}

func TestEngineStreamYieldsAllThenStopsEarly(t *testing.T) {
	specs, err := ExpandScenarios(ScenarioGrid{
		Base:      Scenario{Blocks: 300, Trials: 30, Seed: 6},
		Protocols: []string{"pow", "mlpos", "slpos", "fslpos"},
		Stake:     []float64{0.2, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithWorkers(2))

	count := 0
	for o, err := range eng.Stream(context.Background(), specs) {
		if err != nil {
			t.Fatal(err)
		}
		if o.Hash == "" {
			t.Error("streamed outcome missing hash")
		}
		count++
	}
	if count != len(specs) {
		t.Errorf("streamed %d outcomes, want %d", count, len(specs))
	}

	// Early break cancels the remaining work without deadlocking.
	got := 0
	for _, err := range eng.Stream(context.Background(), specs) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		break
	}
	if got != 1 {
		t.Errorf("broke after %d outcomes", got)
	}
}

func TestEngineStreamSurfacesRunError(t *testing.T) {
	var last error
	n := 0
	for _, err := range NewEngine().Stream(context.Background(), []Scenario{{Protocol: "nope"}}) {
		last = err
		n++
	}
	if n != 1 || last == nil {
		t.Errorf("stream yielded %d items, last err %v; want the validation error", n, last)
	}
}

func TestEngineDiskCacheAcrossEngines(t *testing.T) {
	// Facade-level acceptance: engine two, with a fresh DiskCache over
	// the same directory, serves every completed scenario warm.
	dir := t.TempDir()
	specs, err := ExpandScenarios(ScenarioGrid{
		Base:      Scenario{Blocks: 300, Trials: 30, Seed: 8},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cache1, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(WithCache(cache1)).Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	cache2, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewEngine(WithCache(cache2)).Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Computed != 0 || rep.Stats.CacheHits != len(specs) {
		t.Errorf("second engine stats: %+v", rep.Stats)
	}
}

func TestEngineTheoryBackendFacade(t *testing.T) {
	out, err := NewEngine(WithBackend(TheoryBackend())).EvaluateScenario(context.Background(),
		Scenario{Protocol: "pow", Stake: 0.2, Blocks: 4000, Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Backend != "theory" || !out.Verdict.RobustFair {
		t.Errorf("theory outcome: %+v", out)
	}
}

// startClusterWorker boots one in-process worker node speaking the
// cluster shard protocol over a plain local sweep pipeline.
func startClusterWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ws := cluster.NewWorkerServer(cluster.LocalRunner(sweep.Options{}))
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func clusterTestSpecs(t *testing.T) []Scenario {
	t.Helper()
	specs, err := ExpandScenarios(ScenarioGrid{
		Base:      Scenario{Blocks: 150, Trials: 15},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.4},
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestEngineSweepObservedStreamsAndAggregates(t *testing.T) {
	specs := clusterTestSpecs(t)
	var engineSaw, runSaw int
	eng := NewEngine(WithObserver(func(SweepOutcome) { engineSaw++ }))
	rep, err := eng.SweepObserved(context.Background(), specs, func(SweepOutcome) { runSaw++ })
	if err != nil {
		t.Fatal(err)
	}
	if engineSaw != len(specs) || runSaw != len(specs) {
		t.Errorf("observers saw engine=%d run=%d outcomes, want %d each", engineSaw, runSaw, len(specs))
	}
	if rep.Stats.Scenarios != len(specs) || rep.Stats.Computed != len(specs) {
		t.Errorf("stats: %+v", rep.Stats)
	}
}

func TestEngineStreamThroughCluster(t *testing.T) {
	// Stream in cluster mode: outcomes arrive through the coordinator's
	// merge path and the iterator contract is unchanged.
	w1, w2 := startClusterWorker(t), startClusterWorker(t)
	specs := clusterTestSpecs(t)
	local, err := NewEngine().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	wantByName := map[string]Verdict{}
	for _, o := range local.Outcomes {
		wantByName[o.Name] = o.Verdict
	}
	eng := NewEngine(WithCluster(ClusterOptions{Workers: []string{w1.URL, w2.URL}}))
	seen := 0
	for o, err := range eng.Stream(context.Background(), specs) {
		if err != nil {
			t.Fatal(err)
		}
		if o.Verdict != wantByName[o.Name] {
			t.Errorf("streamed verdict for %q differs from local sweep", o.Name)
		}
		seen++
	}
	if seen != len(specs) {
		t.Errorf("stream yielded %d outcomes, want %d", seen, len(specs))
	}
}

func TestEngineClusterProgressFromCountersAndOpenSpans(t *testing.T) {
	// A cluster run's live progress is its registry and its tracer's
	// open spans: from inside the observer the outcome's shard is still
	// an open dispatch span, and afterwards the counters account for
	// every unique work item with claims and streams along the way.
	w1, w2 := startClusterWorker(t), startClusterWorker(t)
	specs := clusterTestSpecs(t)
	metrics := NewMetricsRegistry()
	tr := NewTracer(nil)
	var mu sync.Mutex
	openDispatch := 0
	eng := NewEngine(
		WithCluster(ClusterOptions{Workers: []string{w1.URL, w2.URL}}),
		WithTelemetry(metrics, tr),
		WithObserver(func(SweepOutcome) {
			for _, s := range tr.Snapshot("").Open {
				if s.Name == "dispatch" {
					mu.Lock()
					openDispatch++
					mu.Unlock()
					return
				}
			}
		}),
	)
	if _, err := eng.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if openDispatch == 0 {
		t.Error("no open dispatch span visible from the outcome observer")
	}
	uniq := map[string]bool{}
	for _, s := range specs {
		uniq[s.MustHash()] = true
	}
	snap := metrics.Snapshot()
	if got := snap["fairness_cluster_delivered_total"]; got != float64(len(uniq)) {
		t.Errorf("delivered = %v, want %d", got, len(uniq))
	}
	if snap["fairness_cluster_shards_claimed_total"] == 0 || snap["fairness_cluster_outcomes_streamed_total"] == 0 {
		t.Errorf("counters never saw claims/streams: %v", snap)
	}
	if open := tr.Snapshot("").Open; len(open) != 0 {
		t.Errorf("spans still open after the run: %+v", open)
	}
}

// adversarialClusterSpecs expands a selfish-mining grid big and slow
// enough that a mid-shard cancellation lands while work is in flight.
func adversarialClusterSpecs(t *testing.T) []Scenario {
	t.Helper()
	specs, err := ExpandScenarios(ScenarioGrid{
		Base: Scenario{Protocol: "pow", Blocks: 4000, Trials: 400, Seed: 31,
			Adversary: &Adversary{Strategy: "selfish"}},
		Stake: []float64{0.35, 0.4, 0.45},
		Gamma: []float64{0, 0.25, 0.5, 0.75},
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
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

func TestEngineSweepObservedClusterAdversarialCancelMidShard(t *testing.T) {
	// SweepObserved in cluster mode over an adversarial scenario grid,
	// cancelled from the observer mid-shard: the coordinator must come
	// back promptly with a partial report and ctx.Err(), the worker's
	// in-flight selfish simulations must stop, and neither side may leak
	// goroutines. Runs under -race in CI, so the cancellation path's
	// synchronisation is exercised too.
	w1, w2 := startClusterWorker(t), startClusterWorker(t)
	specs := adversarialClusterSpecs(t)
	before := countGoroutines(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamed atomic.Int64
	eng := NewEngine(WithCluster(ClusterOptions{Workers: []string{w1.URL, w2.URL}}))
	rep, err := eng.SweepObserved(ctx, specs, func(SweepOutcome) {
		if streamed.Add(1) == 1 {
			cancel() // first adversarial outcome lands mid-shard
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || !rep.Partial {
		t.Fatalf("cancelled cluster sweep must return a partial report, got %+v", rep)
	}
	filled := 0
	for _, o := range rep.Outcomes {
		if o.Hash != "" {
			filled++
		}
	}
	if filled == 0 || filled >= len(specs) {
		t.Errorf("partial report has %d/%d outcomes, want some but not all", filled, len(specs))
	}
	// The whole pipeline — coordinator keep-alives, shard streams, the
	// worker's local sweep pool and its per-trial selfish loops — must
	// drain; nothing may keep grinding after cancellation.
	if after := countGoroutines(before); after > before {
		t.Errorf("goroutines leaked by cancelled cluster sweep: %d -> %d", before, after)
	}
}

func TestEngineClusterCapabilityRefusalIsTypedAndFast(t *testing.T) {
	// A theory-backed cluster engine must refuse an adversarial spec with
	// the same typed CapabilityError a local run returns — before probing
	// or shipping anything (the worker pool here is unreachable on
	// purpose), instead of burning shard retries on a deterministic
	// refusal and surfacing a stringly shard error.
	eng := NewEngine(
		WithBackend(TheoryBackend()),
		WithCluster(ClusterOptions{Workers: []string{"127.0.0.1:1"}}),
	)
	spec := Scenario{Protocol: "pow", Stake: 0.4, Blocks: 100, Trials: 10,
		Adversary: &Adversary{Strategy: "selfish", Gamma: 0.5}}
	_, err := eng.Sweep(context.Background(), []Scenario{spec})
	if !errors.Is(err, ErrBackend) {
		t.Fatalf("err = %v, want ErrBackend", err)
	}
	var capErr *CapabilityError
	if !errors.As(err, &capErr) {
		t.Fatalf("err = %T %v, want *CapabilityError", err, err)
	}
	if capErr.Backend != "theory" || capErr.Feature != "adversary" {
		t.Errorf("capability error = %+v", capErr)
	}
}

func TestEngineClusterBackendMismatchSurfaces(t *testing.T) {
	// A theory-configured engine must refuse montecarlo workers: silently
	// mixing backends would poison the cache namespace.
	w := startClusterWorker(t)
	eng := NewEngine(
		WithBackend(TheoryBackend()),
		WithCluster(ClusterOptions{Workers: []string{w.URL}}),
	)
	_, err := eng.Sweep(context.Background(), clusterTestSpecs(t))
	if !errors.Is(err, ErrClusterBackendMismatch) {
		t.Errorf("err = %v, want ErrClusterBackendMismatch", err)
	}
}
