package fairness_test

// Golden reconciliation tests for the telemetry layer's public face:
// an Engine wired with WithTelemetry must expose a /metrics endpoint
// whose parsed series agree exactly with the sweep report it produced —
// the counters are the report's statistics, not a parallel estimate.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/sweep"
)

// telemetryTestSpecs is a small grid with a deliberate duplicate, so
// cache-hit accounting is exercised even on the cold pass.
func telemetryTestSpecs(t *testing.T) []fairness.Scenario {
	t.Helper()
	specs, err := fairness.ExpandScenarios(fairness.ScenarioGrid{
		Base:      fairness.Scenario{Blocks: 200, Trials: 20, Seed: 11},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.1, 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Append a duplicate of the first scenario under another name: an
	// in-sweep cache hit on the very first pass.
	dup := specs[0]
	dup.Name = "duplicate-of-first"
	return append(specs, dup)
}

// TestMetricsExpositionReconcilesWithReport sweeps cold then warm and
// asserts the scraped /metrics series equal the merged reports' stats.
func TestMetricsExpositionReconcilesWithReport(t *testing.T) {
	specs := telemetryTestSpecs(t)
	metrics := fairness.NewMetricsRegistry()
	var traceBuf bytes.Buffer
	eng := fairness.NewEngine(
		fairness.WithCache(fairness.NewSweepCache(len(specs))),
		fairness.WithTelemetry(metrics, fairness.NewTracer(&traceBuf)),
	)

	// The simulation-core counters live on the process-global registry;
	// reconcile their deltas across the two sweeps against the reports.
	before := fairness.DefaultMetrics().Snapshot()

	cold, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	after := fairness.DefaultMetrics().Snapshot()
	wantCoreTrials := float64(cold.Stats.TrialsRun + warm.Stats.TrialsRun)
	if got := after["fairness_montecarlo_trials_total"] - before["fairness_montecarlo_trials_total"]; got != wantCoreTrials {
		t.Errorf("montecarlo trials counter moved by %v, want %v (the reports' TrialsRun)", got, wantCoreTrials)
	}
	// Every trial of this grid steps exactly Blocks=200 protocol blocks,
	// and the blocks counter must meter real steps — not one synthetic
	// checkpoint entry per trial on top.
	if got, want := after["fairness_montecarlo_blocks_total"]-before["fairness_montecarlo_blocks_total"], wantCoreTrials*200; got != want {
		t.Errorf("montecarlo blocks counter moved by %v, want %v (TrialsRun × 200 blocks)", got, want)
	}

	// Scrape the registry over real HTTP — the test goes through the
	// same handler an operator's Prometheus would.
	ts := httptest.NewServer(fairness.MetricsHandler(metrics))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	series, err := fairness.ParseMetricsText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	label := `{backend="montecarlo"}`
	wantScenarios := float64(cold.Stats.Scenarios + warm.Stats.Scenarios)
	wantHits := float64(cold.Stats.CacheHits + warm.Stats.CacheHits)
	wantComputed := float64(cold.Stats.Computed + warm.Stats.Computed)
	wantTrials := float64(cold.Stats.TrialsRun + warm.Stats.TrialsRun)
	checks := map[string]float64{
		"fairness_sweep_scenarios_total" + label:  wantScenarios,
		"fairness_sweep_cache_hits_total" + label: wantHits,
		"fairness_sweep_computed_total" + label:   wantComputed,
		"fairness_sweep_trials_total" + label:     wantTrials,
		// The eval-latency histogram observes exactly one duration per
		// computed (non-cached) scenario.
		`fairness_eval_seconds_count{backend="montecarlo"}`: wantComputed,
	}
	for id, want := range checks {
		if got := series[id]; got != want {
			t.Errorf("%s = %v, want %v (cold %+v, warm %+v)", id, got, want, cold.Stats, warm.Stats)
		}
	}

	// Snapshot and scrape are the same exposition by construction.
	snap := metrics.Snapshot()
	if len(snap) != len(series) {
		t.Errorf("Snapshot has %d series, scrape has %d", len(snap), len(series))
	}
	for id, v := range snap {
		if series[id] != v {
			t.Errorf("series %s: snapshot %v, scrape %v", id, v, series[id])
		}
	}
}

// TestTraceStreamCoversSweepSpan asserts the NDJSON trace stream holds
// exactly one sweep span and one scenario span per unique scenario — on
// this cold cache that equals Stats.Computed — every line being valid
// JSON with a timestamp.
func TestTraceStreamCoversSweepSpan(t *testing.T) {
	specs := telemetryTestSpecs(t)
	var traceBuf bytes.Buffer
	eng := fairness.NewEngine(
		fairness.WithCache(fairness.NewSweepCache(len(specs))),
		fairness.WithTelemetry(nil, fairness.NewTracer(&traceBuf)),
	)
	rep, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}

	starts, ends := map[string]int{}, map[string]int{}
	sc := bufio.NewScanner(&traceBuf)
	for sc.Scan() {
		var ev struct {
			TS    string `json:"ts"`
			Event string `json:"event"`
			Span  string `json:"span"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.TS == "" || ev.Event == "" {
			t.Fatalf("trace line %q missing ts/event", sc.Text())
		}
		switch ev.Event {
		case "span_start":
			starts[ev.Span]++
		case "span_end":
			ends[ev.Span]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if starts["sweep"] != 1 || ends["sweep"] != 1 {
		t.Errorf("spans started %v, ended %v: want exactly one sweep span", starts, ends)
	}
	if want := rep.Stats.Computed; starts["scenario"] != want || ends["scenario"] != want {
		t.Errorf("%d scenario spans started, %d ended, want %d (one per computed scenario)",
			starts["scenario"], ends["scenario"], want)
	}
}

// lockedBuffer is a trace sink safe to write from many goroutines and
// read while they write.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// spanPairing checks that every line of an NDJSON trace is a span_start
// or a span_end and that each span_start has exactly one span_end with
// the same span_id. It returns the first violation ("" when there is
// none) and the names of the spans seen.
func spanPairing(raw string) (string, map[string]bool) {
	starts, ends := map[string]int{}, map[string]int{}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(raw), "\n") {
		var ev struct {
			Event  string `json:"event"`
			SpanID string `json:"span_id"`
			Span   string `json:"span"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Sprintf("undecodable line %q: %v", line, err), names
		}
		switch ev.Event {
		case "span_start":
			starts[ev.SpanID]++
		case "span_end":
			ends[ev.SpanID]++
		default:
			return fmt.Sprintf("line %q is neither a span_start nor a span_end", line), names
		}
		names[ev.Span] = true
	}
	for id, n := range starts {
		if n != 1 || ends[id] != 1 {
			return fmt.Sprintf("span %s: %d span_start, %d span_end lines", id, n, ends[id]), names
		}
	}
	for id, n := range ends {
		if starts[id] == 0 {
			return fmt.Sprintf("span %s: %d span_end lines and no span_start", id, n), names
		}
	}
	return "", names
}

// TestTraceStreamsHoldOnlyPairedSpans checks two traces, a local
// Engine.Sweep and a job over a two-worker cluster: each holds only
// span lines, and every span that starts ends exactly once.
func TestTraceStreamsHoldOnlyPairedSpans(t *testing.T) {
	specs := telemetryTestSpecs(t)

	var local bytes.Buffer
	eng := fairness.NewEngine(fairness.WithTelemetry(nil, fairness.NewTracer(&local)))
	if _, err := eng.Sweep(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	bad, names := spanPairing(local.String())
	if bad != "" {
		t.Errorf("local sweep trace: %s", bad)
	}
	if !names["sweep"] || !names["scenario"] {
		t.Errorf("local sweep trace has spans %v, want sweep and scenario", names)
	}

	// The job's coordinator, job service and both workers share one
	// tracer, so the stream holds the job's whole tree.
	var job lockedBuffer
	tracer := fairness.NewTracer(&job)
	var workers []string
	for range 2 {
		ws := cluster.NewWorkerServer(cluster.LocalRunner(sweep.Options{Tracer: tracer}))
		ws.SetTelemetry("montecarlo", tracer)
		mux := http.NewServeMux()
		ws.Register(mux)
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		workers = append(workers, srv.URL)
	}
	mgr, err := fairness.NewJobManager(fairness.JobConfig{
		Runner:   fairness.JobClusterRunner(fairness.ClusterOptions{Workers: workers, ShardSize: 2, Tracer: tracer}),
		Capacity: func() int { return len(workers) },
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	info, err := mgr.Submit(fairness.JobSubmitRequest{Tenant: "acme", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	// A worker ends its spans as its shard handler returns, which can be
	// just after the coordinator has merged the shard: allow a moment
	// for the stream to settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err = mgr.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.State.Terminal() {
			if bad, _ = spanPairing(job.String()); bad == "" || time.Now().After(deadline) {
				break
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("job still %s after 10s", info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.State != fairness.JobStateDone {
		t.Fatalf("job ended %s: %s", info.State, info.Error)
	}
	bad, names = spanPairing(job.String())
	if bad != "" {
		t.Errorf("cluster job trace: %s", bad)
	}
	for _, name := range []string{"job", "queued", "gate_wait", "sweep", "dispatch", "eval", "scenario", "merge"} {
		if !names[name] {
			t.Errorf("cluster job trace has spans %v, want %s among them", names, name)
		}
	}
}

// TestFailedSweepEndsItsSpanWithTheError checks that a sweep whose
// evaluator fails still ends its sweep span, with an error attribute.
func TestFailedSweepEndsItsSpanWithTheError(t *testing.T) {
	var buf bytes.Buffer
	eng := fairness.NewEngine(
		fairness.WithBackend(failingBackend{}),
		fairness.WithTelemetry(nil, fairness.NewTracer(&buf)),
	)
	if _, err := eng.Sweep(context.Background(), telemetryTestSpecs(t)); err == nil {
		t.Fatal("sweep over a failing evaluator succeeded")
	}
	var sweepEnds []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("undecodable line %q: %v", line, err)
		}
		if ev["event"] == "span_end" && ev["span"] == "sweep" {
			sweepEnds = append(sweepEnds, ev)
		}
	}
	if len(sweepEnds) != 1 {
		t.Fatalf("%d sweep span_end lines, want 1:\n%s", len(sweepEnds), buf.String())
	}
	if msg, _ := sweepEnds[0]["error"].(string); !strings.Contains(msg, "evaluator down") {
		t.Errorf("sweep span ended with error %q, want the evaluator's failure", msg)
	}
}

// failingBackend is an evaluator whose every evaluation fails.
type failingBackend struct{}

func (failingBackend) Name() string { return "failing" }

func (failingBackend) Evaluate(context.Context, fairness.Scenario) (fairness.Evaluation, error) {
	return fairness.Evaluation{}, errors.New("evaluator down")
}

// TestEngineDefaultMetricsRegistry asserts every engine meters itself
// even without WithTelemetry, readable through Engine.Metrics.
func TestEngineDefaultMetricsRegistry(t *testing.T) {
	specs := telemetryTestSpecs(t)
	eng := fairness.NewEngine()
	rep, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	id := `fairness_sweep_scenarios_total{backend="montecarlo"}`
	if got, want := snap[id], float64(rep.Stats.Scenarios); got != want {
		t.Errorf("%s = %v, want %v", id, got, want)
	}
}

// TestMetricsHandlerMethods pins the endpoint's method discipline.
func TestMetricsHandlerMethods(t *testing.T) {
	ts := httptest.NewServer(fairness.MetricsHandler(fairness.NewMetricsRegistry()))
	defer ts.Close()
	resp, err := http.Post(ts.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}
}
