package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryRegisterHeartbeatExpiry(t *testing.T) {
	reg := NewRegistry("montecarlo", 50*time.Millisecond)
	if err := reg.Register("localhost:7447", "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
	if live := reg.Live(); len(live) != 1 || live[0].URL != "http://localhost:7447" {
		t.Fatalf("live after register: %+v", live)
	}
	// Heartbeats are re-registrations: keep beating past one TTL and the
	// member stays live.
	for i := 0; i < 4; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := reg.Register("localhost:7447", "montecarlo", 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(reg.Live()) != 1 {
		t.Fatal("heartbeating member expired")
	}
	// Stop beating: the lease lapses and the member drops out.
	time.Sleep(80 * time.Millisecond)
	if live := reg.Live(); len(live) != 0 {
		t.Fatalf("expired member still live: %+v", live)
	}
}

func TestRegistryDeregisterAndBackendMismatch(t *testing.T) {
	reg := NewRegistry("montecarlo", time.Second)
	if err := reg.Register("h:1", "theory", 0); !errors.Is(err, ErrBackendMismatch) {
		t.Errorf("register wrong backend: err = %v, want ErrBackendMismatch", err)
	}
	if err := reg.Register("h:1", "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
	if !reg.Deregister("h:1") {
		t.Error("deregister of a live member reported absent")
	}
	if reg.Deregister("h:1") {
		t.Error("second deregister reported present")
	}
	if len(reg.Live()) != 0 {
		t.Error("deregistered member still live")
	}
}

func TestRegistryStaticMembersNeverExpire(t *testing.T) {
	reg := NewRegistry("montecarlo", 20*time.Millisecond)
	reg.addStatic("http://h:1", "montecarlo", 0)
	time.Sleep(60 * time.Millisecond)
	live := reg.Live()
	if len(live) != 1 || !live[0].Static {
		t.Fatalf("static member expired: %+v", live)
	}
	// Penalizing a static member removes it outright — there is no
	// heartbeat to bring it back.
	reg.Penalize("http://h:1")
	if len(reg.Live()) != 0 {
		t.Error("penalized static member still live")
	}
}

func TestRegistryPenaltyQuarantinesHeartbeatingWorker(t *testing.T) {
	reg := NewRegistry("montecarlo", time.Second)
	if err := reg.Register("h:1", "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
	reg.Penalize("h:1")
	// The worker keeps heartbeating, but the penalty window hides it.
	if err := reg.Register("h:1", "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
	if len(reg.Live()) != 0 {
		t.Error("penalized worker surfaced through a heartbeat inside the cooldown")
	}
}

func TestRegistryRateEWMA(t *testing.T) {
	reg := NewRegistry("montecarlo", time.Second)
	if err := reg.Register("h:1", "montecarlo", 8); err != nil {
		t.Fatal(err)
	}
	// Before any coordinator observation, the heartbeat-reported rate
	// stands in.
	if r := reg.Rate("h:1"); r != 8 {
		t.Fatalf("reported rate = %v, want 8", r)
	}
	// First local observation replaces the reported figure outright.
	reg.ObserveRate("h:1", 20, time.Second)
	if r := reg.Rate("h:1"); r != 20 {
		t.Fatalf("rate after first observation = %v, want 20", r)
	}
	// Later observations fold in as an EWMA.
	reg.ObserveRate("h:1", 10, time.Second)
	want := rateEWMAAlpha*10 + (1-rateEWMAAlpha)*20
	if r := reg.Rate("h:1"); r != want {
		t.Fatalf("EWMA rate = %v, want %v", r, want)
	}
	if r := reg.Rate("unknown:1"); r != 0 {
		t.Fatalf("unknown worker rate = %v, want 0", r)
	}
}

func TestRegistryWatchSignalsRegistration(t *testing.T) {
	reg := NewRegistry("montecarlo", time.Second)
	w := reg.Watch()
	select {
	case <-w:
		t.Fatal("watch fired before any registration")
	default:
	}
	if err := reg.Register("h:1", "montecarlo", 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w:
	case <-time.After(time.Second):
		t.Fatal("watch never fired after registration")
	}
}

func TestAdaptiveShardSize(t *testing.T) {
	target := 2 * time.Second
	cases := []struct {
		rate float64
		want int
	}{
		{0, coldShardSize}, // cold worker: small probing shard
		{0.1, 1},           // very slow: one scenario at a time
		{4, 8},             // 4/s over a 2s target
		{1000, 64},         // tiny scenarios: batched, capped
	}
	for _, c := range cases {
		if got := adaptiveShardSize(c.rate, target, 64); got != c.want {
			t.Errorf("adaptiveShardSize(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestRegistryServerEndpoints(t *testing.T) {
	reg := NewRegistry("montecarlo", 200*time.Millisecond)
	srv := NewRegistryServer(reg)
	mux := http.NewServeMux()
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// Register: the worker learns its lease and heartbeat cadence.
	resp := postJSON(t, ts.URL+"/v1/register", `{"url":"w:1","backend":"montecarlo","scenarios_per_sec":3}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	var rr registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.TTLMS != 200 || rr.HeartbeatMS != 200/heartbeatPerTTL {
		t.Errorf("register response: %+v", rr)
	}
	if r := reg.Rate("w:1"); r != 3 {
		t.Errorf("registered rate = %v, want 3", r)
	}

	// A backend mismatch is refused with 409.
	conflict := postJSON(t, ts.URL+"/v1/register", `{"url":"w:2","backend":"theory"}`)
	conflict.Body.Close()
	if conflict.StatusCode != http.StatusConflict {
		t.Errorf("mismatched register status %d, want 409", conflict.StatusCode)
	}

	// Healthz reports the membership.
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var health struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Role != "coordinator" || health.Workers != 1 {
		t.Errorf("coordinator healthz: %+v", health)
	}

	// Deregister removes the member.
	dr := postJSON(t, ts.URL+"/v1/deregister", `{"url":"w:1"}`)
	defer dr.Body.Close()
	var removed struct {
		Removed bool `json:"removed"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&removed); err != nil {
		t.Fatal(err)
	}
	if !removed.Removed || len(reg.Live()) != 0 {
		t.Errorf("deregister: %+v, live=%d", removed, len(reg.Live()))
	}
}

func TestRegistrarHeartbeatsAndDeregisters(t *testing.T) {
	var registers, deregisters atomic.Int64
	var lastBody atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		json.NewDecoder(r.Body).Decode(&req)
		lastBody.Store(req)
		registers.Add(1)
		json.NewEncoder(w).Encode(registerResponse{TTLMS: 60, HeartbeatMS: 20})
	})
	mux.HandleFunc("POST /v1/deregister", func(w http.ResponseWriter, r *http.Request) {
		deregisters.Add(1)
		json.NewEncoder(w).Encode(map[string]bool{"removed": true})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	rg := &Registrar{
		Coordinator: ts.URL,
		Self:        "http://worker:7447",
		Backend:     "montecarlo",
		Rate:        func() float64 { return 5.5 },
	}
	go func() {
		defer close(done)
		rg.Run(ctx)
	}()

	// The registrar adopts the server-suggested 20ms cadence: several
	// heartbeats land quickly.
	deadline := time.After(2 * time.Second)
	for registers.Load() < 3 {
		select {
		case <-deadline:
			t.Fatalf("only %d registrations before deadline", registers.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	req := lastBody.Load().(registerRequest)
	if req.URL != "http://worker:7447" || req.Backend != "montecarlo" || req.ScenariosPerSec != 5.5 {
		t.Errorf("heartbeat body: %+v", req)
	}

	// Cancelling the context (fairnessd's SIGTERM path) deregisters.
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("registrar did not stop after cancel")
	}
	if deregisters.Load() != 1 {
		t.Errorf("deregisters = %d, want 1", deregisters.Load())
	}
}

func TestRegistrarShutdownMidBeatLeavesNoMember(t *testing.T) {
	// A heartbeat in flight when the registrar's context ends must not
	// land after its deregister: the coordinator would count the exited
	// worker live until its lease lapsed.
	reg := NewRegistry("montecarlo", time.Minute)
	inner := http.NewServeMux()
	NewRegistryServer(reg).Register(inner)
	ctx, cancel := context.WithCancel(context.Background())
	held, heldDone := make(chan struct{}), make(chan struct{})
	var beats atomic.Int64
	mux := http.NewServeMux()
	mux.Handle("/", inner)
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		if beats.Add(1) == 2 {
			// Hold the second beat until the registrar is cancelled, then
			// let it land late.
			defer close(heldDone)
			close(held)
			<-ctx.Done()
			time.Sleep(100 * time.Millisecond)
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	done := make(chan struct{})
	rg := &Registrar{
		Coordinator: ts.URL,
		Self:        "http://worker:7447",
		Backend:     "montecarlo",
		Interval:    10 * time.Millisecond,
	}
	go func() {
		defer close(done)
		rg.Run(ctx)
	}()
	select {
	case <-held:
	case <-time.After(2 * time.Second):
		t.Fatal("second heartbeat never arrived")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("registrar did not stop after cancel")
	}
	select {
	case <-heldDone:
	case <-time.After(2 * time.Second):
		t.Fatal("held heartbeat never finished")
	}
	if live := reg.Live(); len(live) != 0 {
		t.Errorf("worker live after its registrar returned: %+v", live)
	}
}

func TestRegistrarReadsAReplyThatArrivesAfterItsHeaders(t *testing.T) {
	// A coordinator may flush the reply's headers before its body. The
	// registrar must still read the body, and so the suggested heartbeat,
	// within its request's timeout.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond)
		io.WriteString(w, `{"ttl_ms":15000,"heartbeat_ms":5000}`)
	}))
	t.Cleanup(ts.Close)
	rg := &Registrar{Coordinator: ts.URL, Self: "http://worker:7447"}
	for i := range 3 {
		got, err := rg.register(context.Background())
		if err != nil || got != 5*time.Second {
			t.Errorf("beat %d: suggested heartbeat %v, err %v; want 5s", i+1, got, err)
		}
	}
}

func TestRegistrarSurvivesAbsentCoordinator(t *testing.T) {
	// A worker that boots before its coordinator must keep retrying, not
	// exit — the coordinator picks it up on a later beat.
	var errs atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	rg := &Registrar{
		Coordinator: "http://127.0.0.1:1", // nothing listens here
		Self:        "http://worker:7447",
		Interval:    10 * time.Millisecond,
		OnError:     func(error) { errs.Add(1) },
	}
	go func() {
		defer close(done)
		rg.Run(ctx)
	}()
	deadline := time.After(2 * time.Second)
	for errs.Load() < 2 {
		select {
		case <-deadline:
			t.Fatal("registrar stopped retrying against an absent coordinator")
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("registrar did not stop after cancel")
	}
}

func TestRegisterRejectsEmptyURL(t *testing.T) {
	reg := NewRegistry("montecarlo", time.Second)
	if err := reg.Register("   ", "montecarlo", 0); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Errorf("empty url register: err = %v", err)
	}
}
