package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// poolWorker is an in-process static worker that counts the healthz
// probes and shard claims it serves, and can go down and come back up
// at the same URL.
type poolWorker struct {
	URL            string
	healthz        map[string]any
	srv            *httptest.Server
	probes, claims atomic.Int64
}

func startPoolWorker(t *testing.T, healthz map[string]any) *poolWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &poolWorker{URL: "http://" + ln.Addr().String(), healthz: healthz}
	w.serve(t, ln)
	return w
}

// serve starts a fresh worker node on ln.
func (w *poolWorker) serve(t *testing.T, ln net.Listener) {
	t.Helper()
	ws := NewWorkerServer(LocalRunner(sweep.Options{}))
	mux := http.NewServeMux()
	ws.Register(mux)
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, r *http.Request) {
		json.NewEncoder(rw).Encode(w.healthz)
	})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz":
			w.probes.Add(1)
		case "/v1/shard":
			w.claims.Add(1)
		}
		mux.ServeHTTP(rw, r)
	}))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	t.Cleanup(srv.Close)
	w.srv = srv
}

// down stops the worker: its port refuses connections until up.
func (w *poolWorker) down() { w.srv.Close() }

// up brings a fresh worker node back at the same URL.
func (w *poolWorker) up(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", strings.TrimPrefix(w.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	w.serve(t, ln)
}

// poolGrid is six fresh cells per seed.
func poolGrid(t *testing.T, seed uint64) []scenario.Spec {
	t.Helper()
	specs, err := scenario.Grid{
		Base:      scenario.Spec{Blocks: 150, Trials: 12, Seed: seed},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.3, 0.4},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestStaticWorkerHealthzRateSizesFirstShard(t *testing.T) {
	// A static worker's rate estimate starts at the rate its healthz
	// reports. At 1000 scenarios/s the first shard targets 1500 (capped
	// at 128), so six scenarios go out in one claim instead of a cold
	// shard of two and then the rest.
	w := startPoolWorker(t, map[string]any{"status": "ok", "backend": "montecarlo", "scenarios_per_sec": 1000})
	specs := poolGrid(t, 5)
	rep, err := Run(context.Background(), specs, Options{Workers: []string{w.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Computed != len(specs) {
		t.Fatalf("computed %d of %d", rep.Stats.Computed, len(specs))
	}
	if got := w.claims.Load(); got != 1 {
		t.Errorf("%d scenarios went out in %d claims, want 1", len(specs), got)
	}
}

func TestCoordinatorReprobesStaticWorkersAfterTheyFail(t *testing.T) {
	// One coordinator keeps its static workers between runs: the first
	// run probes them, later runs claim straight away. Workers that die
	// between runs cost that run its pool (it fails with ErrNoWorkers),
	// and a worker back at the same URL is probed into the next run.
	healthz := map[string]any{"status": "ok", "backend": "montecarlo"}
	ws := []*poolWorker{startPoolWorker(t, healthz), startPoolWorker(t, healthz)}
	c := NewCoordinator(Options{
		Workers:     []string{ws[0].URL, ws[1].URL},
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	probes := func() int64 { return ws[0].probes.Load() + ws[1].probes.Load() }
	ctx := context.Background()

	for run := 1; run <= 2; run++ {
		if _, err := c.Run(ctx, poolGrid(t, uint64(run)), nil, nil); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := probes(); got != 2 {
			t.Fatalf("after run %d the workers saw %d healthz probes, want the first run's 2", run, got)
		}
	}

	ws[0].down()
	ws[1].down()
	if _, err := c.Run(ctx, poolGrid(t, 3), nil, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("run over two dead workers: err = %v, want ErrNoWorkers", err)
	}

	ws[0].up(t)
	before := ws[0].probes.Load()
	specs := poolGrid(t, 4)
	rep, err := c.Run(ctx, specs, nil, nil)
	if err != nil {
		t.Fatalf("run after one worker came back: %v", err)
	}
	if got := ws[0].probes.Load() - before; got != 1 {
		t.Errorf("the returning worker saw %d healthz probes, want 1", got)
	}
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonicalOutcomes(t, rep), canonicalOutcomes(t, local); got != want {
		t.Errorf("report after the worker came back differs from a local sweep:\n%s\nwant\n%s", got, want)
	}
}
