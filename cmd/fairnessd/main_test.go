package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	fairness "repro"
	"repro/internal/cluster"
	"repro/internal/scenario"
)

// testServer boots the handler stack over httptest with a small default
// configuration.
func testServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	if cfg.metrics == nil {
		// A fresh registry per server: the production default registry is
		// process-global, which would leak counters between tests.
		cfg.metrics = fairness.NewMetricsRegistry()
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

type outcomeLine struct {
	Name     string `json:"name"`
	Hash     string `json:"hash"`
	Backend  string `json:"backend"`
	CacheHit bool   `json:"cache_hit"`
	Verdict  struct {
		Protocol          string
		UnfairProbability float64
	} `json:"verdict"`
	Error string `json:"error"`
	Done  *bool  `json:"done"`
}

func TestEvaluateEndpointWithSharedCache(t *testing.T) {
	_, ts := testServer(t, config{cacheCap: 16})
	body := `{"protocol":"pow","stake":0.2,"blocks":200,"trials":20,"seed":3}`

	post := func() outcomeLine {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var o outcomeLine
		if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
			t.Fatal(err)
		}
		return o
	}
	first := post()
	if first.Hash == "" || first.Backend != "montecarlo" || first.CacheHit {
		t.Errorf("first outcome: %+v", first)
	}
	second := post()
	if !second.CacheHit {
		t.Error("second identical request should hit the shared cache")
	}
	if second.Verdict.UnfairProbability != first.Verdict.UnfairProbability {
		t.Error("cache changed the verdict")
	}
}

func TestEvaluateEndpointRejectsBadSpecs(t *testing.T) {
	_, ts := testServer(t, config{})
	for _, body := range []string{
		`{"protocol":"nope"}`,
		`{"protocl":"pow"}`, // typo field
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestOverLimitBodiesAre413(t *testing.T) {
	_, ts := testServer(t, config{})
	body := `{"protocol":"pow","stake":0.2,"blocks":100,"trials":5}`
	body += strings.Repeat(" ", maxBodyBytes+1-len(body))
	for _, path := range []string{"/v1/evaluate", "/v1/sweep"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

func TestSweepEndpointStreamsNDJSON(t *testing.T) {
	_, ts := testServer(t, config{cacheCap: 64})
	grid := `{"base":{"blocks":150,"trials":15,"seed":5},"protocols":["pow","mlpos"],"stake":[0.2,0.3]}`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var outcomes []outcomeLine
	var summary *outcomeLine
	for dec.More() {
		var line outcomeLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Done != nil {
			summary = &line
			break
		}
		outcomes = append(outcomes, line)
	}
	if len(outcomes) != 4 {
		t.Fatalf("streamed %d outcomes, want 4", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Hash == "" || o.Verdict.Protocol == "" {
			t.Errorf("incomplete outcome: %+v", o)
		}
	}
	if summary == nil || !*summary.Done {
		t.Fatalf("missing/failed summary line: %+v", summary)
	}

	// The same sweep again is answered from the shared cache.
	resp2, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	dec2 := json.NewDecoder(resp2.Body)
	hits := 0
	for dec2.More() {
		var line outcomeLine
		if err := dec2.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Done == nil && line.CacheHit {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("second sweep: %d cache hits, want 4", hits)
	}
}

func TestSweepEndpointAcceptsExplicitArray(t *testing.T) {
	_, ts := testServer(t, config{})
	body := `[{"protocol":"pow","blocks":100,"trials":10},{"protocol":"slpos","blocks":100,"trials":10}]`
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	count := 0
	for dec.More() {
		var line outcomeLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Done == nil {
			count++
		}
	}
	if count != 2 {
		t.Errorf("streamed %d outcomes, want 2", count)
	}
}

func TestSweepEndpointRejectsBadBodies(t *testing.T) {
	_, ts := testServer(t, config{})
	for _, body := range []string{`[]`, `{"protocls":["pow"]}`, `[{"protocol":"nope"}]`} {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestSweepEndpointRejectsOversizedGrid(t *testing.T) {
	// Four axes of 2000 values each name 1.6e13 scenarios; expanding
	// them once panicked the handler.
	var b strings.Builder
	b.WriteString(`{"base":{"protocol":"pow","blocks":100,"trials":5}`)
	for _, axis := range []string{"w", "v", "stake", "blocks"} {
		b.WriteString(`,"` + axis + `":[`)
		for i := range 2000 {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(i + 1))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	_, ts := testServer(t, config{})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	cacheDir := t.TempDir()
	_, ts := testServer(t, config{cacheDir: cacheDir, backend: "theory"})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status  string `json:"status"`
		Backend string `json:"backend"`
		Cache   string `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Backend != "theory" || !strings.HasPrefix(h.Cache, "disk:") {
		t.Errorf("healthz: %+v", h)
	}
}

func TestUnknownBackendConfig(t *testing.T) {
	if _, err := newServer(config{backend: "quantum"}); err == nil {
		t.Error("unknown backend should fail construction")
	}
}

func TestDiskCacheSharedAcrossDaemonRestarts(t *testing.T) {
	// Boot, sweep, shut down; boot a second daemon over the same cache
	// directory: every scenario is a hit.
	dir := t.TempDir()
	grid := `{"base":{"blocks":120,"trials":10,"seed":9},"protocols":["pow","mlpos"],"stake":[0.2]}`

	_, ts1 := testServer(t, config{cacheDir: dir})
	resp, err := http.Post(ts1.URL+"/v1/sweep", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	// Read through the done line: the sweep runs on the request's
	// context, so hanging up early can leave a scenario uncomputed and
	// uncached.
	dec1 := json.NewDecoder(resp.Body)
	for done := false; !done; {
		var line outcomeLine
		if err := dec1.Decode(&line); err != nil {
			t.Fatalf("first daemon's sweep stream: %v", err)
		}
		done = line.Done != nil
	}
	resp.Body.Close()
	ts1.Close()

	_, ts2 := testServer(t, config{cacheDir: dir})
	resp2, err := http.Post(ts2.URL+"/v1/sweep", "application/json", strings.NewReader(grid))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	dec := json.NewDecoder(resp2.Body)
	hits, total := 0, 0
	for dec.More() {
		var line outcomeLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Done != nil {
			continue
		}
		total++
		if line.CacheHit {
			hits++
		}
	}
	if total != 2 || hits != 2 {
		t.Errorf("restarted daemon: %d/%d cache hits, want 2/2", hits, total)
	}
}

func TestShardEndpointClaimStreamAckAndHealthzCounters(t *testing.T) {
	// The worker-node face of cluster mode: claim a shard, count the
	// streamed outcomes, then check the healthz placement counters and
	// the ack handshake.
	_, ts := testServer(t, config{cacheCap: 16})
	shard := `{"shard_id":"deadbeef","scenarios":[
		{"protocol":"pow","stake":0.2,"blocks":100,"trials":10,"seed":4},
		{"protocol":"mlpos","stake":0.2,"blocks":100,"trials":10,"seed":4}]}`
	resp, err := http.Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(shard))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	outcomes := 0
	var sum struct {
		Done      bool   `json:"done"`
		ShardID   string `json:"shard_id"`
		Streamed  int    `json:"streamed"`
		TrialsRun int64  `json:"trials_run"`
	}
	for dec.More() {
		var line outcomeLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Done != nil {
			sum.Done, sum.Streamed = *line.Done, outcomes
			continue
		}
		outcomes++
	}
	if outcomes != 2 || !sum.Done {
		t.Fatalf("shard stream: %d outcomes, done=%v", outcomes, sum.Done)
	}

	var h struct {
		ShardsInFlight int64 `json:"shards_in_flight"`
		ShardsDone     int64 `json:"shards_done"`
		PendingAcks    int   `json:"pending_acks"`
	}
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.ShardsInFlight != 0 || h.ShardsDone != 1 || h.PendingAcks != 1 {
		t.Errorf("healthz shard counters: %+v", h)
	}

	ack, err := http.Post(ts.URL+"/v1/shard/ack", "application/json",
		strings.NewReader(`{"shard_id":"deadbeef"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer ack.Body.Close()
	var acked struct {
		Acked bool `json:"acked"`
	}
	if err := json.NewDecoder(ack.Body).Decode(&acked); err != nil {
		t.Fatal(err)
	}
	if !acked.Acked {
		t.Error("ack of a completed shard reported acked=false")
	}
}

func TestClusterCoordinatorAgainstTwoDaemons(t *testing.T) {
	// The acceptance criterion, in-process: a coordinator over two real
	// fairnessd workers sharing one cache directory must produce a report
	// bit-identical (modulo timing/cache bookkeeping) to a single-process
	// Engine.Sweep of the same spec.
	sharedCache := t.TempDir()
	_, w1 := testServer(t, config{cacheDir: sharedCache})
	_, w2 := testServer(t, config{cacheDir: sharedCache})

	grid := fairness.ScenarioGrid{
		Base:      fairness.Scenario{Blocks: 150, Trials: 15},
		Protocols: []string{"pow", "mlpos", "slpos"},
		Stake:     []float64{0.1, 0.3},
		Seed:      21,
	}
	specs, err := fairness.ExpandScenarios(grid)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fairness.NewEngine().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	eng := fairness.NewEngine(fairness.WithCluster(fairness.ClusterOptions{
		Workers: []string{w1.URL, w2.URL},
	}))
	dist, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(outs []fairness.SweepOutcome) string {
		c := make([]fairness.SweepOutcome, len(outs))
		copy(c, outs)
		for i := range c {
			c[i].ElapsedMS = 0
			c[i].CacheHit = false
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := canon(dist.Outcomes), canon(local.Outcomes); got != want {
		t.Errorf("cluster report differs from local Engine.Sweep:\n%s\n%s", got, want)
	}
	if dist.Stats.Scenarios != local.Stats.Scenarios {
		t.Errorf("stats: cluster %+v, local %+v", dist.Stats, local.Stats)
	}

	// Second pass through the same engine: the workers' shared disk cache
	// answers everything, with no new computation anywhere.
	warm, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.TrialsRun != 0 {
		t.Errorf("warm cluster pass ran %d trials, want 0", warm.Stats.TrialsRun)
	}
	if got, want := canon(warm.Outcomes), canon(local.Outcomes); got != want {
		t.Error("warm cluster report differs from local Engine.Sweep")
	}
}

func TestAdvertiseURLDerivation(t *testing.T) {
	cases := []struct {
		advertise, addr, want string
		wantErr               bool
	}{
		{"http://w1:7447", ":9999", "http://w1:7447", false},
		{"w1:7447", ":9999", "http://w1:7447", false},
		{"", ":7447", "http://127.0.0.1:7447", false},
		{"", "10.0.0.5:7447", "http://10.0.0.5:7447", false},
		{"", "", "", true},
	}
	for _, c := range cases {
		got, err := advertiseURL(c.advertise, c.addr)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("advertiseURL(%q, %q) = %q, %v; want %q, err=%v",
				c.advertise, c.addr, got, err, c.want, c.wantErr)
		}
	}
}

func TestWorkerListensBeforeItRegisters(t *testing.T) {
	// A coordinator that probes the worker while it handles the worker's
	// registration must reach it, so the first registration succeeds and
	// the worker is not quarantined until a later heartbeat.
	srv, err := newServer(config{cacheCap: 8, metrics: fairness.NewMetricsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	free, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := free.Addr().String()
	free.Close()

	first := make(chan int, 1)
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/register" {
			return // deregistration on shutdown
		}
		status := http.StatusOK
		resp, err := http.Get("http://" + addr + "/v1/healthz")
		if err != nil {
			status = http.StatusServiceUnavailable
		} else {
			resp.Body.Close()
			status = resp.StatusCode
		}
		select {
		case first <- status:
		default:
		}
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]int64{"ttl_ms": 60000, "heartbeat_ms": 20000})
	}))
	t.Cleanup(coord.Close)

	// A bind that takes a while, as on a loaded host: a registration sent
	// before the listener exists reaches the coordinator first.
	slowListen := func(network, address string) (net.Listener, error) {
		time.Sleep(50 * time.Millisecond)
		return net.Listen(network, address)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, config{addr: addr, register: coord.URL}, slowListen) }()
	select {
	case status := <-first:
		if status != http.StatusOK {
			t.Errorf("first registration answered %d: the worker was not serving yet", status)
		}
	case <-time.After(10 * time.Second):
		t.Error("the worker never registered")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
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

func TestServeSetsHeaderAndIdleTimeouts(t *testing.T) {
	srv, err := newServer(config{cacheCap: 8, metrics: fairness.NewMetricsRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	ln := &deadlineListener{}
	listening := make(chan string, 1)
	listen := func(network, address string) (net.Listener, error) {
		inner, err := net.Listen(network, address)
		if err != nil {
			return nil, err
		}
		ln.Listener = inner
		listening <- inner.Addr().String()
		return ln, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve(ctx, srv, config{addr: "127.0.0.1:0"}, listen) }()
	addr := <-listening

	// Two requests on one connection: the server waits for the first
	// one's headers, then holds the connection idle until the second.
	client := &http.Client{Transport: &http.Transport{}}
	for range 2 {
		resp, err := client.Get("http://" + addr + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	client.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	ln.requireTimeouts(t)
}

func TestProgressEndpointAndHealthzShardCounters(t *testing.T) {
	// GET /v1/progress is retired: a worker's shard progress is its
	// healthz counters plus the shard's eval span in /v1/traces.
	_, ts := testServer(t, config{cacheCap: 16})
	shard := `{"shard_id":"cafebabe","scenarios":[
		{"protocol":"pow","stake":0.25,"blocks":100,"trials":10,"seed":6}]}`
	resp, err := http.Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(shard))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	pr, err := http.Get(ts.URL + "/v1/progress")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/progress: status %d, want %d", pr.StatusCode, http.StatusNotFound)
	}

	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h struct {
		ShardsClaimed    int64   `json:"shards_claimed"`
		ShardsInFlight   int64   `json:"shards_in_flight"`
		ShardsDone       int64   `json:"shards_done"`
		OutcomesStreamed int64   `json:"outcomes_streamed"`
		ScenariosPerSec  float64 `json:"scenarios_per_sec"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.ShardsClaimed != 1 || h.ShardsInFlight != 0 || h.ShardsDone != 1 ||
		h.OutcomesStreamed != 1 || h.ScenariosPerSec <= 0 {
		t.Errorf("healthz shard counters: %+v", h)
	}

	// The finished shard is a completed eval span; nothing is open.
	tr, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var traces struct {
		Spans []fairness.SpanRecord `json:"spans"`
		Open  []fairness.SpanRecord `json:"open"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	var evals []fairness.SpanRecord
	for _, s := range traces.Spans {
		if s.Name == "eval" {
			evals = append(evals, s)
		}
	}
	if len(evals) != 1 || evals[0].Attrs["shard"] != "cafebabe" ||
		evals[0].Attrs["status"] != "done" || evals[0].Attrs["streamed"] != "1" || len(traces.Open) != 0 {
		t.Errorf("traces after the shard: eval spans %+v, open %+v", evals, traces.Open)
	}
}

func TestSelfRegisteredWorkerJoinsCoordinatorRun(t *testing.T) {
	// End-to-end self-organization in-process: a coordinator run starts
	// against an EMPTY registry, a real fairnessd worker self-registers
	// through its Registrar mid-run, and the merged report matches a
	// local Engine.Sweep bit for bit.
	srv, ts := testServer(t, config{cacheCap: 64})

	reg := cluster.NewRegistry("montecarlo", time.Minute)
	regSrv := cluster.NewRegistryServer(reg)
	coordMux := http.NewServeMux()
	regSrv.Register(coordMux)
	coord := httptest.NewServer(coordMux)
	t.Cleanup(coord.Close)

	rgCtx, rgCancel := context.WithCancel(context.Background())
	rgDone := make(chan struct{})
	rg, err := srv.registrar(config{register: coord.URL, advertise: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	rg.Interval = 20 * time.Millisecond
	go func() {
		defer close(rgDone)
		rg.Run(rgCtx)
	}()

	specs, err := fairness.ExpandScenarios(fairness.ScenarioGrid{
		Base:      fairness.Scenario{Blocks: 120, Trials: 12},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.4},
		Seed:      31,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := fairness.NewEngine().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	eng := fairness.NewEngine(fairness.WithCluster(fairness.ClusterOptions{Registry: reg}))
	dist, err := eng.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(outs []fairness.SweepOutcome) string {
		c := make([]fairness.SweepOutcome, len(outs))
		copy(c, outs)
		for i := range c {
			c[i].ElapsedMS = 0
			c[i].CacheHit = false
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, want := canon(dist.Outcomes), canon(local.Outcomes); got != want {
		t.Errorf("self-registered cluster report differs from local Engine.Sweep:\n%s\n%s", got, want)
	}

	// Graceful shutdown deregisters the worker from the coordinator.
	rgCancel()
	select {
	case <-rgDone:
	case <-time.After(2 * time.Second):
		t.Fatal("registrar did not stop")
	}
	if n := len(reg.Live()); n != 0 {
		t.Errorf("worker still registered after graceful shutdown: %d members", n)
	}
}

// jobGrid is a small submission spec shared by the job-service tests.
const jobGrid = `{"base":{"blocks":150,"trials":10},"protocols":["pow","mlpos"],"stake":[0.2,0.3]}`

// normalizeJobOutcomes strips timing/cache bookkeeping for bit-exact
// report comparison.
func normalizeJobOutcomes(t *testing.T, outs []fairness.SweepOutcome) string {
	t.Helper()
	c := make([]fairness.SweepOutcome, len(outs))
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

func TestJobServiceLocalModeEndToEnd(t *testing.T) {
	srv, ts := testServer(t, config{jobs: true, cacheCap: 64})
	defer srv.close()
	client := fairness.NewJobClient(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	info, err := client.Submit(ctx, fairness.JobSubmitBody{
		Name: "daemon-e2e", Tenant: "acme", Seed: 5,
		Spec: json.RawMessage(jobGrid),
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != fairness.JobStateQueued || info.Scenarios != 4 {
		t.Fatalf("submitted job: %+v", info)
	}
	if info, err = client.Wait(ctx, info.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info.State != fairness.JobStateDone || info.Partial {
		t.Fatalf("finished job: %+v", info)
	}
	_, outs, err := client.Results(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := scenario.DecodeSpecsOrGrid([]byte(jobGrid), 5)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fairness.NewEngine().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeJobOutcomes(t, outs), normalizeJobOutcomes(t, local.Outcomes); got != want {
		t.Errorf("job report differs from local sweep:\n%s\n%s", got, want)
	}

	// The job counters surface on the daemon's /metrics exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	series, err := fairness.ParseMetricsText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if series[`fairness_jobs_submitted_total{tenant="acme"}`] != 1 {
		t.Errorf("submitted counter missing: %v", series)
	}
	if series[`fairness_jobs_finished_total{state="done"}`] != 1 {
		t.Errorf("finished counter missing")
	}
}

func TestJobServiceClusterModeDispatchesOverRegisteredWorkers(t *testing.T) {
	// Coordinator daemon: job service over self-registering workers.
	coord, coordTS := testServer(t, config{jobsCluster: true})
	defer coord.close()
	if coord.jobsMgr == nil || coord.jobsReg == nil {
		t.Fatal("-jobs-cluster did not assemble the cluster-backed job service")
	}

	client := fairness.NewJobClient(coordTS.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Submit before any worker exists: the job must wait, not fail —
	// and the waiting state must be visible on the cluster gauge.
	info, err := client.Submit(ctx, fairness.JobSubmitBody{
		Name: "cluster-job", Tenant: "acme", Seed: 9,
		Spec: json.RawMessage(jobGrid),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two worker daemons join through the coordinator's /v1/register —
	// the exact flow `fairnessd -register http://coordinator` runs.
	for i := 0; i < 2; i++ {
		_, workerTS := testServer(t, config{})
		reg := &cluster.Registrar{Coordinator: coordTS.URL, Self: workerTS.URL, Backend: "montecarlo"}
		regCtx, stopReg := context.WithCancel(ctx)
		defer stopReg()
		go reg.Run(regCtx)
	}

	if info, err = client.Wait(ctx, info.ID, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if info.State != fairness.JobStateDone || info.Partial {
		t.Fatalf("cluster job: %+v", info)
	}
	_, outs, err := client.Results(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := scenario.DecodeSpecsOrGrid([]byte(jobGrid), 9)
	if err != nil {
		t.Fatal(err)
	}
	local, err := fairness.NewEngine().Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := normalizeJobOutcomes(t, outs), normalizeJobOutcomes(t, local.Outcomes); got != want {
		t.Errorf("cluster job report differs from local sweep:\n%s\n%s", got, want)
	}
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("alice=3,bob=1.5, carol=2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if w["alice"] != 3 || w["bob"] != 1.5 || w["carol"] != 2 || len(w) != 3 {
		t.Errorf("parsed weights: %v", w)
	}
	for _, bad := range []string{"alice", "alice=0", "alice=-1", "=2", "alice=x"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) should fail", bad)
		}
	}
	if w, err := parseWeights(""); err != nil || w != nil {
		t.Errorf("empty weights: %v %v", w, err)
	}
}
