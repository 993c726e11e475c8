package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// safeBuf is an io.Writer + reader usable from concurrent goroutines —
// the trace sink for e2e assertions.
type safeBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *safeBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startClusterWorker boots one in-process worker node and registers it.
func startClusterWorker(t *testing.T, reg *cluster.Registry) {
	t.Helper()
	url := serveWorker(t, cluster.LocalRunner(sweep.Options{}), nil)
	if err := reg.Register(url, "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
}

// serveWorker boots one in-process worker node over run for the rest of
// the test and returns its URL. connState, when non-nil, sees every
// change of state of the node's connections.
func serveWorker(t *testing.T, run cluster.RunFunc, connState func(net.Conn, http.ConnState)) string {
	t.Helper()
	ws := cluster.NewWorkerServer(run)
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "backend": "montecarlo"})
	})
	srv := httptest.NewUnstartedServer(mux)
	srv.Config.ConnState = connState
	srv.Start()
	t.Cleanup(srv.Close)
	return srv.URL
}

// traceEvents decodes the NDJSON trace buffer.
func traceEvents(t *testing.T, raw string) []map[string]any {
	t.Helper()
	var events []map[string]any
	sc := bufio.NewScanner(strings.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("undecodable trace line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestJobsOverClusterFairInterleavingAndBitIdentical is the tentpole
// e2e: two equal-weight tenants submit jobs onto one shared worker
// pool. While both are in flight each must receive 50% ± 10% of shard
// dispatches, and both merged reports must be bit-identical to local
// sweeps of the same specs.
func TestJobsOverClusterFairInterleavingAndBitIdentical(t *testing.T) {
	metrics := telemetry.NewRegistry()
	trace := &safeBuf{}
	tracer := telemetry.NewTracer(trace)
	reg := cluster.NewRegistry("montecarlo", 0)

	m, err := NewManager(Config{
		Runner: ClusterRunner(cluster.Options{
			Registry:    reg,
			ShardSize:   1, // dispatch-granularity fairness, one scenario per grant
			BackoffBase: time.Millisecond,
			// Keep the worker-discovery poll tight: the default 2s max
			// backoff lets one run sit blind to the just-registered
			// workers while the other monopolizes them, which is a
			// discovery race, not a scheduling decision.
			BackoffMax: 5 * time.Millisecond,
			Metrics:    metrics,
			Tracer:     tracer,
		}),
		// Exactly one slot per live worker: with two runs contending for
		// two slots the gate queue is never empty, so EVERY grant is a
		// stride-scheduler decision rather than a first-come free pass —
		// that is what makes the 50/50 interleave assertion deterministic.
		Capacity: func() int { return len(reg.Live()) },
		Metrics:  metrics,
		Tracer:   tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bigGrid := func(seed uint64, protocols ...string) []scenario.Spec {
		g := scenario.Grid{
			// Heavy enough that per-scenario work dwarfs
			// goroutine-scheduling jitter: fairness is only observable
			// while both tenants are actually waiting at the gate, and
			// millisecond scenarios let one tenant drain inside the
			// other's wakeup latency.
			Base:      scenario.Spec{Blocks: 1200, Trials: 25, Seed: seed},
			Protocols: protocols,
			Stake:     []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35},
		}
		specs, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return specs
	}
	specsA := bigGrid(100, "pow", "mlpos", "slpos", "cpos")
	specsB := bigGrid(200, "pow", "cpos")
	if len(specsA) != 24 || len(specsB) != 12 {
		t.Fatalf("grid sizes changed: %d, %d", len(specsA), len(specsB))
	}
	// Unequal job sizes on purpose: the fairness window is "while both
	// tenants are in flight", i.e. the trace prefix up to tenant-b's
	// last dispatch — with equal sizes the final totals are trivially
	// equal and prove nothing about interleaving.
	jobA, err := m.Submit(SubmitRequest{Name: "big", Tenant: "tenant-a", Specs: specsA})
	if err != nil {
		t.Fatal(err)
	}
	jobB, err := m.Submit(SubmitRequest{Name: "small", Tenant: "tenant-b", Specs: specsB})
	if err != nil {
		t.Fatal(err)
	}

	// Hold worker registration until BOTH cluster runs are live and
	// waiting, so dispatch is contested from the very first shard.
	deadline := time.Now().Add(10 * time.Second)
	for strings.Count(trace.String(), `"event":"cluster_start"`) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("cluster runs never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	startClusterWorker(t, reg)
	startClusterWorker(t, reg)

	for _, id := range []string{jobA.ID, jobB.ID} {
		if fin := waitState(t, m, id, StateDone); fin.Partial {
			t.Fatalf("job %s finished partial", id)
		}
	}

	// Fairness: each tenant's share of dispatches must be 50% ± 10%
	// over the contention window — from the moment BOTH tenants have
	// issued a dispatch (before that only one tenant's loops were even
	// requesting: worker discovery and goroutine wakeup are a race the
	// scheduler cannot arbitrate) up to tenant-b's last dispatch (after
	// b drains, a runs uncontested by design).
	var dispatches []string
	for _, ev := range traceEvents(t, trace.String()) {
		if ev["event"] == "job_dispatch" {
			dispatches = append(dispatches, ev["tenant"].(string))
		}
	}
	firstA, lastB := -1, -1
	for i, tenant := range dispatches {
		if tenant == "tenant-a" && firstA < 0 {
			firstA = i
		}
		if tenant == "tenant-b" {
			lastB = i
		}
	}
	firstB := -1
	for i, tenant := range dispatches {
		if tenant == "tenant-b" {
			firstB = i
			break
		}
	}
	start := max(firstA, firstB)
	if firstA < 0 || firstB < 0 || lastB-start+1 < 8 {
		t.Fatalf("contention window too small to judge: firstA=%d firstB=%d lastB=%d in %v",
			firstA, firstB, lastB, dispatches)
	}
	counts := map[string]int{}
	for i := start; i <= lastB; i++ {
		counts[dispatches[i]]++
	}
	total := counts["tenant-a"] + counts["tenant-b"]
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		share := float64(counts[tenant]) / float64(total)
		if share < 0.4 || share > 0.6 {
			t.Errorf("tenant %s: dispatch share %.3f while contested, want 0.5 ± 0.1 (counts %v, sequence %v)",
				tenant, share, counts, dispatches)
		}
	}

	// The dispatch metrics must tell the same story.
	snap := metrics.Snapshot()
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		if snap[`fairness_jobs_dispatches_total{tenant="`+tenant+`"}`] == 0 {
			t.Errorf("no fairness_jobs_dispatches_total for %s", tenant)
		}
	}
	if snap["fairness_jobs_running"] != 0 || snap["fairness_jobs_queued"] != 0 {
		t.Errorf("lifecycle gauges did not settle: %v", snap)
	}

	// Bit-identical: each job's merged report vs a local sweep.
	localA, err := sweep.Run(specsA, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	localB, err := sweep.Run(specsB, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pageA, err := m.Results(jobA.ID, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	pageB, err := m.Results(jobB.ID, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, pageA.Outcomes), canonical(t, localA.Outcomes); got != want {
		t.Errorf("tenant-a job outcomes differ from local sweep:\n%s\n%s", got, want)
	}
	if got, want := canonical(t, pageB.Outcomes), canonical(t, localB.Outcomes); got != want {
		t.Errorf("tenant-b job outcomes differ from local sweep:\n%s\n%s", got, want)
	}
}

// TestJobsOverClusterCancelMidRunKeepsPartial cancels a job mid-run on
// a live cluster: the job must land in cancelled with a partial report
// whose completed outcomes match local computation.
func TestJobsOverClusterCancelMidRunKeepsPartial(t *testing.T) {
	metrics := telemetry.NewRegistry()
	reg := cluster.NewRegistry("montecarlo", 0)
	m, err := NewManager(Config{
		Runner: ClusterRunner(cluster.Options{
			Registry:    reg,
			ShardSize:   1,
			BackoffBase: time.Millisecond,
			Metrics:     metrics,
		}),
		Capacity: func() int { return 2 * len(reg.Live()) },
		Metrics:  metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	startClusterWorker(t, reg)

	// A deliberately chunky job so there is a mid-run to cancel in.
	specs := jobSpecs(t, 300, "pow", "mlpos", "slpos")
	for i := range specs {
		specs[i].Blocks = 600
		specs[i].Trials = 40
	}
	info, err := m.Submit(SubmitRequest{Name: "doomed", Tenant: "acme", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for metrics.Counter("fairness_jobs_scenarios_dispatched_total", "tenant", "acme").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("job never started dispatching")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, info.ID, StateCancelled)
	if !fin.Partial {
		t.Fatal("cancelled job not marked partial")
	}
	page, err := m.Results(info.ID, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The partial report holds only outcomes that actually computed —
	// the runner compacts torn-run placeholders away. Per-scenario seeds
	// are hash-derived and unique, so they map each outcome back to its
	// original (named) spec.
	bySeed := make(map[uint64]scenario.Spec, len(specs))
	for _, s := range specs {
		bySeed[s.Seed] = s
	}
	var filledSpecs []scenario.Spec
	for _, o := range page.Outcomes {
		if o.Hash == "" {
			t.Fatalf("partial report leaked an unfilled outcome: %+v", o)
		}
		s, ok := bySeed[o.Spec.Seed]
		if !ok {
			t.Fatalf("outcome seed %d matches no submitted spec", o.Spec.Seed)
		}
		filledSpecs = append(filledSpecs, s)
	}
	if len(page.Outcomes) == 0 || len(page.Outcomes) >= len(specs) {
		t.Fatalf("partial report has %d of %d outcomes — want a strict mid-run cut",
			len(page.Outcomes), len(specs))
	}
	// The outcomes that did complete before the cancel must still be
	// bit-identical to local evaluation of the same specs.
	local, err := sweep.Run(filledSpecs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, page.Outcomes), canonical(t, local.Outcomes); got != want {
		t.Errorf("partial outcomes differ from local sweep:\n%s\n%s", got, want)
	}
	snap := metrics.Snapshot()
	if snap[`fairness_jobs_finished_total{state="cancelled"}`] != 1 {
		t.Errorf("cancelled finish not counted: %v", snap)
	}
}
