package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// startWorker boots one in-process worker node speaking the cluster
// protocol — the same handlers fairnessd mounts.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	return startRunWorker(t, cluster.LocalRunner(sweep.Options{}))
}

// startRunWorker boots a worker node over run, serving the healthz
// counters and /v1/traces spans a fairnessd worker serves.
func startRunWorker(t *testing.T, run cluster.RunFunc) *httptest.Server {
	t.Helper()
	tr := fairness.NewTracer(nil)
	ws := cluster.NewWorkerServer(run)
	ws.SetTelemetry("montecarlo", tr)
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.Handle("GET /v1/traces", fairness.TracesHandler(tr))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok", "backend": "montecarlo", "cache": "none",
			"shards_in_flight": ws.InFlight(), "shards_done": ws.Done(),
			"outcomes_streamed": ws.Streamed(),
			"scenarios_per_sec": ws.Rate(),
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// capture swaps stdout/stderr for one command invocation.
func capture(t *testing.T, args []string) (string, string, error) {
	t.Helper()
	var out, errOut bytes.Buffer
	oldOut, oldErr := stdout, stderr
	stdout, stderr = &out, &errOut
	defer func() { stdout, stderr = oldOut, oldErr }()
	err := run(args)
	return out.String(), errOut.String(), err
}

// writeGrid drops a small grid spec into a temp file.
func writeGrid(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	grid := `{"seed":7,"base":{"blocks":120,"trials":12},"protocols":["pow","mlpos"],"stake":[0.2,0.4]}`
	if err := os.WriteFile(path, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAgainstTwoWorkersMatchesLocalSweep(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	spec := writeGrid(t)

	out, _, err := capture(t, []string{"run",
		"-workers", w1.URL + "," + w2.URL, "-json", spec})
	if err != nil {
		t.Fatal(err)
	}
	var rep sweep.Report
	decoded := json.NewDecoder(strings.NewReader(out))
	if err := decoded.Decode(&rep); err != nil {
		t.Fatalf("run -json output not a report: %v\n%s", err, out)
	}
	if rep.Stats.Scenarios != 4 || rep.Stats.Computed != 4 {
		t.Errorf("stats: %+v", rep.Stats)
	}
	if !strings.Contains(out, "across 2 static workers") {
		t.Errorf("summary missing worker count:\n%s", out)
	}
}

func TestRunNDJSONStreamsOutcomes(t *testing.T) {
	w := startWorker(t)
	out, errOut, err := capture(t, []string{"run", "-workers", w.URL, "-ndjson", writeGrid(t)})
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	dec := json.NewDecoder(strings.NewReader(out))
	for dec.More() {
		var o sweep.Outcome
		if err := dec.Decode(&o); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if o.Hash == "" {
			t.Error("outcome line missing hash")
		}
		lines++
	}
	if lines != 4 {
		t.Errorf("streamed %d outcomes, want 4", lines)
	}
	if !strings.Contains(errOut, "4 scenarios") {
		t.Errorf("summary not on stderr: %q", errOut)
	}
}

func TestRunRequiresWorkersAndSpec(t *testing.T) {
	if _, _, err := capture(t, []string{"run", writeGrid(t)}); err == nil {
		t.Error("run without -workers or -listen should fail")
	}
	w := startWorker(t)
	if _, _, err := capture(t, []string{"run", "-workers", w.URL}); err == nil {
		t.Error("run without a spec should fail")
	}
}

func TestRunListenZeroWorkersCompletesAfterRegistration(t *testing.T) {
	// The acceptance path through the CLI: `run -listen` starts with an
	// EMPTY pool, a worker self-registers against the coordinator's
	// /v1/register endpoint mid-run, and the run completes.
	w := startWorker(t)
	spec := writeGrid(t)

	// Reserve an ephemeral port for the coordinator listener so
	// concurrent test runs never collide on a fixed address.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordAddr := probe.Addr().String()
	probe.Close()

	// Register the worker once the coordinator's listener answers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			body := strings.NewReader(`{"url":"` + w.URL + `","backend":"montecarlo"}`)
			resp, err := http.Post("http://"+coordAddr+"/v1/register", "application/json", body)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	out, errOut, err := capture(t, []string{"run",
		"-listen", coordAddr, "-progress", "-json", spec})
	<-done
	if err != nil {
		t.Fatalf("run -listen failed: %v\nstderr:\n%s", err, errOut)
	}
	var rep sweep.Report
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&rep); err != nil {
		t.Fatalf("run -json output not a report: %v\n%s", err, out)
	}
	if rep.Stats.Scenarios != 4 || rep.Stats.Computed != 4 {
		t.Errorf("stats: %+v", rep.Stats)
	}
	if !strings.Contains(errOut, "waiting for workers to register") {
		t.Errorf("stderr missing wait notice:\n%s", errOut)
	}
	if !strings.Contains(errOut, "progress:") {
		t.Errorf("stderr missing -progress lines:\n%s", errOut)
	}
}

// deadlineListener records, for each read deadline an http.Server sets
// on the connections it accepts, how far ahead of the call it lies.
type deadlineListener struct {
	net.Listener
	mu    sync.Mutex
	ahead []time.Duration
}

func (l *deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &deadlineConn{Conn: c, l: l}, nil
}

type deadlineConn struct {
	net.Conn
	l *deadlineListener
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	if !t.IsZero() {
		c.l.mu.Lock()
		c.l.ahead = append(c.l.ahead, time.Until(t))
		c.l.mu.Unlock()
	}
	return c.Conn.SetReadDeadline(t)
}

// requireTimeouts fails unless the server gave some request headers
// cluster.ServerReadHeaderTimeout to arrive and some idle connection
// cluster.ServerIdleTimeout before it closes.
func (l *deadlineListener) requireTimeouts(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, want := range []time.Duration{cluster.ServerReadHeaderTimeout, cluster.ServerIdleTimeout} {
		if !slices.ContainsFunc(l.ahead, func(d time.Duration) bool { return d > want-time.Second && d <= want }) {
			t.Errorf("no read deadline %v ahead among %v", want, l.ahead)
		}
	}
}

func TestRunListenSetsHeaderAndIdleTimeouts(t *testing.T) {
	w := startWorker(t)
	ln := &deadlineListener{}
	listening := make(chan string, 1)
	netListen = func(network, address string) (net.Listener, error) {
		inner, err := net.Listen(network, address)
		if err != nil {
			return nil, err
		}
		ln.Listener = inner
		listening <- inner.Addr().String()
		return ln, nil
	}
	defer func() { netListen = net.Listen }()
	done := make(chan error, 1)
	go func() {
		_, errOut, err := capture(t, []string{"run", "-listen", "127.0.0.1:0", writeGrid(t)})
		if err != nil {
			err = fmt.Errorf("%v\n%s", err, errOut)
		}
		done <- err
	}()
	addr := <-listening

	// Two requests on one connection: the server waits for the first
	// one's headers, then holds the connection idle until the second,
	// which registers the worker the run waits for.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = client.Post("http://"+addr+"/v1/register", "application/json",
		strings.NewReader(`{"url":"`+w.URL+`","backend":"montecarlo"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := <-done; err != nil {
		t.Fatalf("run -listen: %v", err)
	}
	ln.requireTimeouts(t)
}

func TestWatchRendersWorkerAndCoordinatorProgress(t *testing.T) {
	// A live coordinator over two workers, caught mid-run: each worker
	// streams its shard's first outcome and then holds the rest until
	// release. watch -once must render the delivered/total count, the
	// in-flight shards (counted and one row each) and both workers.
	release := make(chan struct{})
	held := func(ctx context.Context, specs []scenario.Spec, on func(sweep.Outcome)) (sweep.Stats, error) {
		first := true
		return cluster.LocalRunner(sweep.Options{})(ctx, specs, func(o sweep.Outcome) {
			on(o)
			if first {
				first = false
				select {
				case <-release:
				case <-ctx.Done():
				}
			}
		})
	}
	w1, w2 := startRunWorker(t, held), startRunWorker(t, held)

	metrics := fairness.NewMetricsRegistry()
	tr := fairness.NewTracer(nil)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", fairness.MetricsHandler(metrics))
	mux.Handle("GET /v1/traces", fairness.TracesHandler(tr))
	coord := httptest.NewServer(mux)
	t.Cleanup(coord.Close)
	specs, err := loadSpecs(writeGrid(t), 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := fairness.NewEngine(
		fairness.WithCluster(fairness.ClusterOptions{Workers: []string{w1.URL, w2.URL}, ShardSize: 2}),
		fairness.WithTelemetry(metrics, tr))
	runErr := make(chan error, 1)
	go func() {
		_, err := eng.Sweep(context.Background(), specs)
		runErr <- err
	}()
	defer func() {
		close(release)
		if err := <-runErr; err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for metrics.Snapshot()["fairness_cluster_delivered_total"] < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the two held shards never streamed their first outcomes")
		}
		time.Sleep(5 * time.Millisecond)
	}

	out, _, err := capture(t, []string{"watch",
		"-coordinator", coord.URL, "-workers", w1.URL + "," + w2.URL, "-once"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"running · 2/4 delivered", "shards 2 claimed / 2 in flight", "2 workers",
		"worker " + w1.URL + ": 1 in-flight", "worker " + w2.URL + ": 1 in-flight", "2 scenarios, streaming"}
	for _, s := range tr.Snapshot("").Open {
		if s.Name == "dispatch" {
			want = append(want, fmt.Sprintf("%.12s", s.Attrs["shard"]))
		}
	}
	if len(want) != 8 {
		t.Fatalf("want two open dispatch spans, checking %q", want)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("watch output missing %q:\n%s", w, out)
		}
	}
}

func TestWatchExitsWhenCoordinatorReportsDone(t *testing.T) {
	// A coordinator whose sweep span has ended: the run is over.
	metrics := fairness.NewMetricsRegistry()
	metrics.Counter("fairness_cluster_delivered_total").Add(4)
	tr := fairness.NewTracer(nil)
	fairness.StartSpan(tr, fairness.SpanContext{}, "coordinator", "sweep", "unique", 4).End()
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", fairness.MetricsHandler(metrics))
	mux.Handle("GET /v1/traces", fairness.TracesHandler(tr))
	coord := httptest.NewServer(mux)
	t.Cleanup(coord.Close)

	// No -once: the ended sweep span itself must end the loop.
	out, _, err := capture(t, []string{"watch", "-coordinator", coord.URL, "-interval", "10ms"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "done · 4/4 delivered") || !strings.Contains(out, "run complete") {
		t.Errorf("watch did not announce completion:\n%s", out)
	}
}

func TestWatchRequiresTarget(t *testing.T) {
	if _, _, err := capture(t, []string{"watch"}); err == nil {
		t.Error("watch without targets should fail")
	}
}

func TestStatusReportsWorkers(t *testing.T) {
	w := startWorker(t)
	out, _, err := capture(t, []string{"status", "-workers", w.URL + ",127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1/2 workers up") {
		t.Errorf("status output:\n%s", out)
	}
	if !strings.Contains(out, "DOWN") {
		t.Errorf("unreachable worker not marked down:\n%s", out)
	}

	// All workers down is an error exit for scripting.
	if _, _, err := capture(t, []string{"status", "-workers", "127.0.0.1:1"}); err == nil {
		t.Error("status with every worker down should fail")
	}
}

func TestUnknownCommand(t *testing.T) {
	if _, _, err := capture(t, []string{"frobnicate"}); err == nil {
		t.Error("unknown command should fail")
	}
}

// startJobServer boots an in-process multi-tenant job service — the
// same /v1/jobs stack fairnessd -jobs mounts — over an optional custom
// runner (nil = local sweeps).
func startJobServer(t *testing.T, runner fairness.JobSweepRunner) *httptest.Server {
	t.Helper()
	if runner == nil {
		runner = fairness.JobLocalRunner(sweep.Options{}, 0)
	}
	mgr, err := fairness.NewJobManager(fairness.JobConfig{Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mux := http.NewServeMux()
	fairness.WithJobServer(mux, mgr)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// normalizeOutcomes strips the legitimately run-dependent fields
// (timing, cache provenance) and re-marshals for bit-exact comparison.
func normalizeOutcomes(t *testing.T, outs []sweep.Outcome) string {
	t.Helper()
	c := make([]sweep.Outcome, len(outs))
	copy(c, outs)
	for i := range c {
		c[i].ElapsedMS = 0
		c[i].CacheHit = false
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSubmitWaitResultsMatchesLocalSweep(t *testing.T) {
	srv := startJobServer(t, nil)
	specFile := writeGrid(t)

	out, _, err := capture(t, []string{"submit", "-server", srv.URL,
		"-tenant", "acme", "-name", "cli-e2e", "-wait", "-poll", "20ms", specFile})
	if err != nil {
		t.Fatal(err)
	}
	var info fairness.JobInfo
	if err := json.Unmarshal([]byte(out), &info); err != nil {
		t.Fatalf("submit output not a JobInfo: %v\n%s", err, out)
	}
	if info.State != fairness.JobStateDone || info.Tenant != "acme" || info.Scenarios != 4 {
		t.Fatalf("job info: %+v", info)
	}

	// results -ndjson: one outcome per line, same shape as fairsweep.
	out, errOut, err := capture(t, []string{"results", "-server", srv.URL, "-ndjson", info.ID})
	if err != nil {
		t.Fatal(err)
	}
	var got []sweep.Outcome
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var o sweep.Outcome
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		got = append(got, o)
	}
	if !strings.Contains(errOut, info.ID) {
		t.Errorf("summary line missing job id: %q", errOut)
	}
	specs, err := loadSpecs(specFile, 1)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fairness.NewEngine().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if want := normalizeOutcomes(t, local.Outcomes); normalizeOutcomes(t, got) != want {
		t.Errorf("job results differ from local sweep:\n%s\n%s", normalizeOutcomes(t, got), want)
	}

	// jobs list shows the finished job.
	out, _, err = capture(t, []string{"jobs", "-server", srv.URL, "-tenant", "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, info.ID) || !strings.Contains(out, "done") {
		t.Errorf("jobs listing:\n%s", out)
	}
}

func TestCancelKeepsPartialResults(t *testing.T) {
	// A runner that completes one outcome, then blocks until cancelled —
	// deterministic mid-run state for the CLI to cancel.
	started := make(chan struct{})
	runner := func(ctx context.Context, specs []fairness.Scenario,
		gate fairness.ClusterDispatchGate, cache fairness.CacheStore) (*fairness.SweepReport, error) {
		rep, err := fairness.NewEngine().Sweep(context.Background(), specs[:1])
		if err != nil {
			return nil, err
		}
		rep.Partial = true
		close(started)
		<-ctx.Done()
		return rep, ctx.Err()
	}
	srv := startJobServer(t, runner)
	specFile := writeGrid(t)

	out, _, err := capture(t, []string{"submit", "-server", srv.URL, specFile})
	if err != nil {
		t.Fatal(err)
	}
	var info fairness.JobInfo
	if err := json.Unmarshal([]byte(out), &info); err != nil {
		t.Fatal(err)
	}
	<-started
	if out, _, err = capture(t, []string{"cancel", "-server", srv.URL, info.ID}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cancel requested") {
		t.Errorf("cancel output: %q", out)
	}
	client := fairness.NewJobClient(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fin, err := client.Wait(ctx, info.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != fairness.JobStateCancelled || !fin.Partial {
		t.Fatalf("after cancel: %+v", fin)
	}
	out, _, err = capture(t, []string{"results", "-server", srv.URL, "-json", info.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"partial": true`) || !strings.Contains(out, `"hash"`) {
		t.Errorf("partial results:\n%s", out)
	}
}

func TestJobCommandErrors(t *testing.T) {
	srv := startJobServer(t, nil)
	if _, _, err := capture(t, []string{"results", "-server", srv.URL, "j-999999"}); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("results for unknown job: %v", err)
	}
	if _, _, err := capture(t, []string{"cancel", "-server", srv.URL}); err == nil {
		t.Error("cancel without an id should fail")
	}
	if _, _, err := capture(t, []string{"submit", "-server", srv.URL}); err == nil {
		t.Error("submit without a spec should fail")
	}
}
