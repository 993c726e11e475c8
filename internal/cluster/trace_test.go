package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// startTracedWorker boots an in-process worker with span instrumentation
// wired: eval/stream spans land in tr, and /v1/traces serves them.
func startTracedWorker(t *testing.T, tr *telemetry.Tracer) (*httptest.Server, *WorkerServer) {
	t.Helper()
	ws := NewWorkerServer(LocalRunner(sweep.Options{}))
	ws.SetTelemetry("montecarlo", tr)
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.Handle("GET /v1/traces", telemetry.TracesHandler(tr))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "backend": "montecarlo"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, ws
}

// requireNoOpenSpans fails if a tracer still holds an open span once its
// run is over: every span must end on every path. A worker notices a cut
// claim only when its connection drops, so tracers get up to grace to
// drain.
func requireNoOpenSpans(t *testing.T, grace time.Duration, tracers ...*telemetry.Tracer) {
	t.Helper()
	deadline := time.Now().Add(grace)
	for i, tr := range tracers {
		for len(tr.Snapshot("").Open) > 0 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if open := tr.Snapshot("").Open; len(open) > 0 {
			t.Errorf("tracer %d still holds %d open spans: %+v", i, len(open), open)
		}
	}
}

func spansByName(spans []telemetry.SpanRecord, name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// TestClusterTracePropagatesAcrossWorkers runs a two-worker in-process
// cluster under a caller-rooted span and asserts the full causal chain:
// one trace_id end to end, worker eval spans parented on coordinator
// dispatch spans via the X-Fairness-Trace header, baggage labels
// (tenant/job) stamped on worker-side spans, and a single-rooted
// assembled tree.
func TestClusterTracePropagatesAcrossWorkers(t *testing.T) {
	specs := testGrid(t)
	coordTr := telemetry.NewTracer(nil)
	w1Tr := telemetry.NewTracer(nil)
	w2Tr := telemetry.NewTracer(nil)
	w1, _ := startTracedWorker(t, w1Tr)
	w2, _ := startTracedWorker(t, w2Tr)

	root := telemetry.StartSpan(coordTr, telemetry.SpanContext{}, "test", "job")
	ctx := telemetry.ContextWithSpan(context.Background(), root.Context())
	ctx = telemetry.ContextWithBaggage(ctx, map[string]string{"tenant": "acme", "job": "j-000042"})
	rep, err := Run(ctx, specs, Options{
		Workers:   []string{w1.URL, w2.URL},
		ShardSize: 2, // several dispatches, so both workers see shards
		Tracer:    coordTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if rep.Stats.Scenarios != len(specs) {
		t.Fatalf("stats: %+v", rep.Stats)
	}

	traceID := root.Context().TraceID
	coord := coordTr.Snapshot(traceID).Spans
	workerSpans := append(w1Tr.Snapshot(traceID).Spans, w2Tr.Snapshot(traceID).Spans...)

	sweeps := spansByName(coord, "sweep")
	if len(sweeps) != 1 {
		t.Fatalf("coordinator recorded %d sweep spans, want 1", len(sweeps))
	}
	if sweeps[0].ParentID != root.Context().SpanID {
		t.Errorf("sweep span parent %q, want the caller's root %q", sweeps[0].ParentID, root.Context().SpanID)
	}
	if len(spansByName(coord, "merge")) != 1 {
		t.Error("coordinator did not record a merge span")
	}
	dispatches := spansByName(coord, "dispatch")
	if len(dispatches) == 0 {
		t.Fatal("coordinator recorded no dispatch spans")
	}
	dispatchIDs := make(map[string]bool, len(dispatches))
	for _, d := range dispatches {
		if d.ParentID != sweeps[0].SpanID {
			t.Errorf("dispatch %s parented on %q, want the sweep span", d.SpanID, d.ParentID)
		}
		if d.Attrs["status"] != "merged" {
			t.Errorf("dispatch %s status %q, want merged", d.SpanID, d.Attrs["status"])
		}
		dispatchIDs[d.SpanID] = true
	}

	evals := spansByName(workerSpans, "eval")
	if len(evals) != len(dispatches) {
		t.Errorf("%d eval spans across workers, want one per dispatch (%d)", len(evals), len(dispatches))
	}
	evalIDs := make(map[string]bool, len(evals))
	for _, e := range evals {
		if e.TraceID != traceID {
			t.Errorf("eval span on trace %q, want %q", e.TraceID, traceID)
		}
		if !dispatchIDs[e.ParentID] {
			t.Errorf("eval span %s parented on %q — not a coordinator dispatch span", e.SpanID, e.ParentID)
		}
		if e.Attrs["tenant"] != "acme" || e.Attrs["job"] != "j-000042" {
			t.Errorf("eval span lost baggage labels: %v", e.Attrs)
		}
		if e.Attrs["backend"] != "montecarlo" {
			t.Errorf("eval span backend %q", e.Attrs["backend"])
		}
		evalIDs[e.SpanID] = true
	}
	for _, s := range spansByName(workerSpans, "stream") {
		if !evalIDs[s.ParentID] {
			t.Errorf("stream span parented on %q — not an eval span", s.ParentID)
		}
	}

	requireNoOpenSpans(t, 0, coordTr, w1Tr, w2Tr)

	all := append(append([]telemetry.SpanRecord{}, coord...), workerSpans...)
	tree := telemetry.BuildSpanTree(all)
	if len(tree.Roots) != 1 {
		t.Fatalf("assembled tree has %d roots, want 1", len(tree.Roots))
	}
	if tree.Roots[0].Name != "job" {
		t.Errorf("tree rooted at %q, want the job span", tree.Roots[0].Name)
	}
}

// TestClusterTornStreamRequeueTraceSemantics drives the stalling-worker
// scenario (one shard torn mid-stream, lease expiry, remainder requeued
// onto a worker that registers mid-run) and asserts the retry tracing
// contract: every requeue attempt stays on the run's trace_id but mints
// a FRESH dispatch span, and no span — on the stream or in the tracer's
// ring — is ever ended twice.
func TestClusterTornStreamRequeueTraceSemantics(t *testing.T) {
	specs := testGrid(t)
	stalling := httptest.NewServer(&stallingWorker{})
	t.Cleanup(stalling.Close)
	healthyTr := telemetry.NewTracer(nil)
	healthy, _ := startTracedWorker(t, healthyTr)

	var buf bytes.Buffer
	coordTr := telemetry.NewTracer(&buf)
	reg := NewRegistry("montecarlo", time.Minute)
	go func() {
		time.Sleep(100 * time.Millisecond)
		reg.Register(healthy.URL, "montecarlo", 0)
	}()
	_, err := Run(context.Background(), specs, Options{
		Workers:     []string{stalling.URL},
		Registry:    reg,
		ShardSize:   64, // one big shard for the stalling worker
		LeaseTTL:    300 * time.Millisecond,
		BackoffBase: time.Millisecond,
		Tracer:      coordTr,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNoOpenSpans(t, 0, coordTr, healthyTr)

	spans := coordTr.Snapshot("").Spans
	sweeps := spansByName(spans, "sweep")
	if len(sweeps) != 1 {
		t.Fatalf("%d sweep spans, want 1", len(sweeps))
	}
	traceID := sweeps[0].TraceID

	dispatches := spansByName(spans, "dispatch")
	if len(dispatches) < 2 {
		t.Fatalf("%d dispatch spans, want at least the torn attempt plus its requeue", len(dispatches))
	}
	var requeued, merged int
	seenIDs := make(map[string]bool)
	for _, d := range dispatches {
		if d.TraceID != traceID {
			t.Errorf("dispatch %s left the trace: %q != %q", d.SpanID, d.TraceID, traceID)
		}
		if seenIDs[d.SpanID] {
			t.Errorf("dispatch span id %s recorded twice — retries must mint fresh spans", d.SpanID)
		}
		seenIDs[d.SpanID] = true
		switch d.Attrs["status"] {
		case "requeued":
			requeued++
		case "merged":
			merged++
		}
	}
	if requeued == 0 {
		t.Error("no dispatch span recorded the torn/requeued attempt")
	}
	if merged == 0 {
		t.Error("no dispatch span recorded a successful attempt")
	}

	// The healthy worker's eval spans joined the SAME trace, under the
	// retry dispatch spans.
	for _, e := range spansByName(healthyTr.Snapshot("").Spans, "eval") {
		if e.TraceID != traceID {
			t.Errorf("retry eval span on trace %q, want %q", e.TraceID, traceID)
		}
		if !seenIDs[e.ParentID] {
			t.Errorf("retry eval span parented on %q — not a dispatch span of this run", e.ParentID)
		}
	}

	// Lease-expiry/requeue paths must never double-end a span: each
	// span_id appears at most once among span_end events, and the
	// tracer's ring (which records on End) holds each span at most once.
	ends := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var ev struct {
			Event  string `json:"event"`
			SpanID string `json:"span_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if ev.Event == "span_end" {
			ends[ev.SpanID]++
		}
	}
	for id, n := range ends {
		if n > 1 {
			t.Errorf("span %s ended %d times", id, n)
		}
	}
	recorded := make(map[string]int)
	for _, s := range spans {
		recorded[s.SpanID]++
	}
	for id, n := range recorded {
		if n > 1 {
			t.Errorf("span %s recorded %d times in the tracer's ring", id, n)
		}
	}
}
