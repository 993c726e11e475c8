package jobs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// startTracedClusterWorker boots one worker node whose eval/stream spans
// and local sweep/scenario spans share tr, as in fairnessd, and
// registers it with reg.
func startTracedClusterWorker(t *testing.T, reg *cluster.Registry, tr *telemetry.Tracer) {
	t.Helper()
	ws := cluster.NewWorkerServer(cluster.LocalRunner(sweep.Options{Tracer: tr}))
	ws.SetTelemetry("montecarlo", tr)
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "backend": "montecarlo"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	if err := reg.Register(srv.URL, "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
}

// TestJobTraceSingleRootedTreeReconcilesWithMakespan is the tracing
// acceptance e2e: one job over a two-worker in-process cluster must
// yield a single-rooted span tree (job → queued/sweep → gate_wait /
// dispatch → eval → stream and local sweep → scenario, plus merge),
// assembled from the coordinator's and the workers' tracers, whose
// per-stage durations sum to within 10% of the measured makespan.
func TestJobTraceSingleRootedTreeReconcilesWithMakespan(t *testing.T) {
	trace := &safeBuf{}
	tracer := telemetry.NewTracer(trace)
	w1Tr := telemetry.NewTracer(nil)
	w2Tr := telemetry.NewTracer(nil)
	reg := cluster.NewRegistry("montecarlo", 0)
	startTracedClusterWorker(t, reg, w1Tr)
	startTracedClusterWorker(t, reg, w2Tr)

	m, err := NewManager(Config{
		Runner: ClusterRunner(cluster.Options{
			Registry:    reg,
			ShardSize:   2,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
			Tracer:      tracer,
		}),
		Capacity: func() int { return len(reg.Live()) },
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	g := scenario.Grid{
		// Sized so the job runs for at least 300 ms on a 2-vCPU host:
		// long enough that the 10% reconciliation window dwarfs
		// polling/teardown jitter.
		Base:      scenario.Spec{Blocks: 2400, Trials: 400, Seed: 7},
		Protocols: []string{"pow", "mlpos", "cpos"},
		Stake:     []float64{0.1, 0.2, 0.3, 0.4},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	info, err := m.Submit(SubmitRequest{Name: "traced", Tenant: "acme", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, info.ID, StateDone)
	makespanMS := float64(time.Since(t0).Microseconds()) / 1000
	t.Logf("job makespan %.1fms", makespanMS)
	if fin.Partial {
		t.Fatal("job finished partial")
	}
	if info.TraceID == "" || fin.TraceID != info.TraceID {
		t.Fatalf("job trace id not stable: submit %q, finished %q", info.TraceID, fin.TraceID)
	}

	// Assemble the tree exactly the way `fairctl trace` does: merge the
	// coordinator's and every worker's tracer.
	all := tracer.Snapshot(info.TraceID).Spans
	all = append(all, w1Tr.Snapshot(info.TraceID).Spans...)
	all = append(all, w2Tr.Snapshot(info.TraceID).Spans...)
	tree := telemetry.BuildSpanTree(all)
	if len(tree.Roots) != 1 {
		t.Fatalf("span tree has %d roots, want 1 (spans: %d)", len(tree.Roots), tree.Spans)
	}
	root := tree.Roots[0]
	if root.Name != "job" || root.Service != "jobs" {
		t.Fatalf("tree rooted at %s/%s, want jobs/job", root.Service, root.Name)
	}

	// Every lifecycle stage must be present in the breakdown.
	breakdown := root.StageBreakdown()
	for _, stage := range []string{"job", "queued", "sweep", "dispatch", "eval", "scenario", "merge"} {
		if _, ok := breakdown[stage]; !ok {
			t.Errorf("stage %q missing from breakdown %v", stage, breakdown)
		}
	}

	// Acceptance: per-stage durations sum to within 10% of the measured
	// makespan. StageBreakdown partitions the root span exactly, so this
	// is really root-span duration vs wall clock around submit→done.
	var sum float64
	for _, v := range breakdown {
		sum += v
	}
	if math.Abs(sum-root.DurationMS) > 1e-6 {
		t.Errorf("stage sum %.3fms != root duration %.3fms — breakdown is not a partition", sum, root.DurationMS)
	}
	if rel := math.Abs(sum-makespanMS) / makespanMS; rel > 0.10 {
		t.Errorf("stage durations sum to %.1fms vs measured makespan %.1fms (%.1f%% off, want ≤10%%)\nbreakdown: %v",
			sum, makespanMS, rel*100, breakdown)
	}

	// The critical path descends job → sweep → (whatever finished last
	// under the sweep — the merge epilogue, by construction).
	path := root.CriticalPath()
	if len(path) < 3 || path[1].Name != "sweep" {
		var names []string
		for _, n := range path {
			names = append(names, n.Name)
		}
		t.Errorf("critical path %v, want job → sweep → ...", names)
	}

	// Worker eval spans must be present and parented on coordinator
	// dispatch spans — the cross-process half of the tree.
	dispatchIDs := make(map[string]bool)
	for _, s := range all {
		if s.Name == "dispatch" {
			dispatchIDs[s.SpanID] = true
		}
	}
	evals := 0
	for _, s := range all {
		if s.Name == "eval" {
			evals++
			if !dispatchIDs[s.ParentID] {
				t.Errorf("eval span %s parented on %q — not a dispatch span", s.SpanID, s.ParentID)
			}
		}
	}
	if evals == 0 {
		t.Error("no worker eval spans joined the job's trace")
	}

	// Each worker's sweep shares its eval spans' tracer: every eval span
	// holds exactly one local sweep span, which holds one scenario span
	// per unique scenario of the shard, and nothing a worker recorded
	// left the job's trace.
	workerSpans := append(w1Tr.Snapshot("").Spans, w2Tr.Snapshot("").Spans...)
	children := make(map[string][]telemetry.SpanRecord) // by parent span id
	for _, s := range workerSpans {
		if s.TraceID != info.TraceID {
			t.Errorf("worker span %s [%s] on trace %q, want the job's %q", s.Name, s.Service, s.TraceID, info.TraceID)
		}
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	named := func(spans []telemetry.SpanRecord, name, service string) (out []telemetry.SpanRecord) {
		for _, s := range spans {
			if s.Name == name && s.Service == service {
				out = append(out, s)
			}
		}
		return out
	}
	for _, e := range named(workerSpans, "eval", "worker") {
		sweeps := named(children[e.SpanID], "sweep", "local")
		if len(sweeps) != 1 {
			t.Errorf("eval span %s holds %d local sweep spans, want 1", e.SpanID, len(sweeps))
			continue
		}
		got := len(named(children[sweeps[0].SpanID], "scenario", "local"))
		if want, _ := strconv.Atoi(sweeps[0].Attrs["unique"]); got == 0 || got != want {
			t.Errorf("local sweep span %s holds %d scenario spans, want %d", sweeps[0].SpanID, got, want)
		}
	}
}
