package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// stallingWorker speaks the real shard protocol but, on its first
// claim, streams exactly one genuine outcome and then goes silent
// without ever finishing the shard — a worker that is alive
// (healthz keeps answering) but stuck. The coordinator's shard lease
// must expire, requeue the REMAINDER onto another worker, and keep the
// one streamed outcome without re-evaluating it.
type stallingWorker struct {
	mu      sync.Mutex
	stalled bool
}

func (sw *stallingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/v1/healthz":
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	case r.Method == http.MethodPost && r.URL.Path == "/v1/shard":
		sw.mu.Lock()
		first := !sw.stalled
		sw.stalled = true
		sw.mu.Unlock()
		if !first {
			// Quarantine failed: a second claim reached the worker.
			http.Error(w, "stalled worker claimed twice", http.StatusServiceUnavailable)
			return
		}
		var req shardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			shardError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		// Evaluate and stream the first scenario for real...
		rep, err := sweep.Run(req.Scenarios[:1], sweep.Options{})
		if err != nil {
			shardError(w, http.StatusInternalServerError, err)
			return
		}
		enc.Encode(rep.Outcomes[0])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		// ...then stall until the coordinator cuts the lease.
		<-r.Context().Done()
	default:
		http.NotFound(w, r)
	}
}

// recordingWorker is a healthy worker that records every scenario hash
// it is asked to evaluate.
type recordingWorker struct {
	srv *httptest.Server

	mu     sync.Mutex
	hashes []string
}

func newRecordingWorker(t *testing.T) *recordingWorker {
	t.Helper()
	rw := &recordingWorker{}
	ws := NewWorkerServer(func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
		rw.mu.Lock()
		for _, s := range specs {
			rw.hashes = append(rw.hashes, s.MustHash())
		}
		rw.mu.Unlock()
		return LocalRunner(sweep.Options{})(ctx, specs, on)
	})
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	})
	rw.srv = httptest.NewServer(mux)
	t.Cleanup(rw.srv.Close)
	return rw
}

func (rw *recordingWorker) claimed() []string {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return append([]string(nil), rw.hashes...)
}

func TestClusterLeaseExpiryRequeuesRemainderWithoutDoubleEvaluation(t *testing.T) {
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	firstHash := specs[0].MustHash()

	stalling := httptest.NewServer(&stallingWorker{})
	t.Cleanup(stalling.Close)
	healthy := newRecordingWorker(t)

	// The stalling worker is the only member at launch, so it claims the
	// whole grid as one shard; the healthy worker registers mid-run and
	// must end up computing exactly the undelivered remainder.
	reg := NewRegistry("montecarlo", time.Minute)
	var outcomes []sweep.Outcome
	var mu sync.Mutex
	before := countGoroutines(0)
	go func() {
		time.Sleep(100 * time.Millisecond)
		reg.Register(healthy.srv.URL, "montecarlo", 0)
	}()
	rep, err := Run(context.Background(), specs, Options{
		Workers:     []string{stalling.URL},
		Registry:    reg,
		ShardSize:   64, // one big shard for the stalling worker
		LeaseTTL:    300 * time.Millisecond,
		BackoffBase: time.Millisecond,
		OnOutcome: func(o sweep.Outcome) {
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The merged report is indistinguishable from an undisturbed local
	// sweep: the pre-stall outcome survived, the remainder was
	// reassigned.
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("outcomes after lease expiry differ from local sweep:\n%s\n%s", got, want)
	}
	if rep.Partial {
		t.Error("report marked partial despite successful reassignment")
	}

	// Every position was delivered exactly once.
	mu.Lock()
	if len(outcomes) != len(specs) {
		t.Errorf("observer saw %d outcomes, want %d", len(outcomes), len(specs))
	}
	mu.Unlock()

	// No scenario was evaluated twice: the healthy worker computed each
	// remainder hash once and never saw the hash the stalling worker
	// already delivered.
	seen := make(map[string]int)
	for _, h := range healthy.claimed() {
		seen[h]++
	}
	if seen[firstHash] != 0 {
		t.Errorf("already-delivered scenario %.12s was re-evaluated on the healthy worker", firstHash)
	}
	for h, n := range seen {
		if n > 1 {
			t.Errorf("scenario %.12s evaluated %d times on the healthy worker", h, n)
		}
	}
	// Stats agree with a single evaluation per unique scenario.
	if rep.Stats.Computed != local.Stats.Computed {
		t.Errorf("computed = %d, want %d", rep.Stats.Computed, local.Stats.Computed)
	}

	// The stalled worker is quarantined: no longer in the live set.
	for _, m := range reg.Live() {
		if m.URL == stalling.URL {
			t.Error("stalled worker still live after lease expiry")
		}
	}

	if after := countGoroutines(before); after > before {
		t.Errorf("goroutines leaked across lease expiry: %d -> %d", before, after)
	}
}

func TestClusterZeroWorkersCompletesAfterSelfRegistration(t *testing.T) {
	// The acceptance path: a run launched against an EMPTY registry must
	// wait, pick up the two workers that self-register mid-run, and
	// produce a report bit-identical to a local sweep.
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	w1, ws1 := startWorker(t, sweep.Options{}, "montecarlo")
	w2, ws2 := startWorker(t, sweep.Options{}, "montecarlo")
	reg := NewRegistry("montecarlo", time.Minute)
	go func() {
		time.Sleep(50 * time.Millisecond)
		reg.Register(w1.URL, "montecarlo", 0)
		time.Sleep(50 * time.Millisecond)
		reg.Register(w2.URL, "montecarlo", 0)
	}()

	metrics := telemetry.NewRegistry()
	rep, err := Run(context.Background(), specs, Options{
		Registry: reg,
		Metrics:  metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("self-registered cluster outcomes differ from local sweep:\n%s\n%s", got, want)
	}
	ls, cs := local.Stats, rep.Stats
	if cs.Scenarios != ls.Scenarios || cs.Computed != ls.Computed ||
		cs.CacheHits != ls.CacheHits || cs.TrialsRun != ls.TrialsRun {
		t.Errorf("stats differ: cluster %+v, local %+v", cs, ls)
	}
	if ws1.Done()+ws2.Done() == 0 {
		t.Error("no self-registered worker completed any shard")
	}

	// The run's counters tell the progress story: every unique item
	// delivered, with claims and streamed outcomes along the way.
	uniq := make(map[string]bool)
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
}

// registerOnWait is a trace sink that registers a worker the moment a
// run opens its pool_wait span: the registration lands inside the
// supervisor's scan of the pool.
type registerOnWait struct {
	once sync.Once
	reg  *Registry
	url  string
	at   time.Time
}

func (w *registerOnWait) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"event":"span_start"`)) && bytes.Contains(p, []byte(`"span":"pool_wait"`)) {
		w.once.Do(func() {
			w.at = time.Now()
			w.reg.Register(w.url, "montecarlo", 0)
		})
	}
	return len(p), nil
}

func TestClusterRegistrationDuringScanWakesSupervisor(t *testing.T) {
	// A worker that registers while the supervisor scans the pool must
	// be claimed from at once, not at the supervisor's next tick.
	var firstClaim atomic.Int64 // unix nanoseconds
	plain := LocalRunner(sweep.Options{})
	w, _ := startRunWorker(t, func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
		firstClaim.CompareAndSwap(0, time.Now().UnixNano())
		return plain(ctx, specs, on)
	}, "montecarlo")
	reg := NewRegistry("montecarlo", time.Minute)
	sink := &registerOnWait{reg: reg, url: w.URL}
	if _, err := Run(context.Background(), testGrid(t), Options{
		Registry: reg, Tracer: telemetry.NewTracer(sink),
	}); err != nil {
		t.Fatal(err)
	}
	if sink.at.IsZero() {
		t.Fatal("the run never reported waiting for a worker")
	}
	if wait := time.Unix(0, firstClaim.Load()).Sub(sink.at); wait >= supervisorInterval/2 {
		t.Errorf("first claim %v after the registration; the supervisor slept through it", wait)
	}
}

func TestClusterSlowHealthzWorkerIsNotDeclaredDead(t *testing.T) {
	// Regression for the probe-vs-claim timeout conflation: a worker
	// whose healthz answers slowly — but well inside ProbeTimeout — must
	// survive the post-failure liveness check.
	specs := testGrid(t)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ws := NewWorkerServer(LocalRunner(sweep.Options{}))
	inner := http.NewServeMux()
	ws.Register(inner)
	var failedOnce sync.Once
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond) // slow, but alive
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		failed := false
		if r.Method == http.MethodPost && r.URL.Path == "/v1/shard" {
			failedOnce.Do(func() {
				failed = true
				http.Error(w, "transient claim failure", http.StatusServiceUnavailable)
			})
		}
		if !failed {
			inner.ServeHTTP(w, r)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	rep, err := Run(context.Background(), specs, Options{
		Workers:      []string{srv.URL}, // the ONLY worker: dropping it fails the run
		ProbeTimeout: 2 * time.Second,
		BackoffBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("slow-healthz worker was dropped: %v", err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Error("outcomes differ from local sweep after transient claim failure")
	}
}
