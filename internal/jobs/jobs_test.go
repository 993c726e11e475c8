package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// jobSpecs expands a small grid with a given seed so different jobs can
// carry disjoint work (distinct hashes, no cross-job cache collisions).
func jobSpecs(t *testing.T, seed uint64, protocols ...string) []scenario.Spec {
	t.Helper()
	if len(protocols) == 0 {
		protocols = []string{"pow", "mlpos"}
	}
	g := scenario.Grid{
		Base:      scenario.Spec{Blocks: 120, Trials: 10, Seed: seed},
		Protocols: protocols,
		Stake:     []float64{0.2, 0.3, 0.4},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// canonical strips where/when fields, leaving what must be
// bit-identical between any two executions of the same specs.
func canonical(t *testing.T, outs []sweep.Outcome) string {
	t.Helper()
	c := make([]sweep.Outcome, len(outs))
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

func waitState(t *testing.T, m *Manager, id string, want JobState) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		info, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if info.State.Terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, info.State, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, info.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestManagerLocalJobMatchesLocalSweep(t *testing.T) {
	specs := jobSpecs(t, 1)
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Runner: LocalRunner(sweep.Options{}, 2)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, err := m.Submit(SubmitRequest{Name: "demo", Tenant: "acme", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateQueued || info.ID == "" || info.Scenarios != len(specs) {
		t.Fatalf("submit snapshot: %+v", info)
	}
	done := waitState(t, m, info.ID, StateDone)
	if done.Stats.Scenarios != len(specs) {
		t.Errorf("stats: %+v", done.Stats)
	}

	// Paginated retrieval must walk the full outcome list in order.
	var outs []sweep.Outcome
	token := ""
	pages := 0
	for {
		page, err := m.Results(info.ID, token, 4)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, page.Outcomes...)
		pages++
		if page.NextPageToken == "" {
			break
		}
		token = page.NextPageToken
	}
	if pages < 2 {
		t.Errorf("page size 4 over %d outcomes produced %d pages", len(specs), pages)
	}
	if got, want := canonical(t, outs), canonical(t, local.Outcomes); got != want {
		t.Errorf("job outcomes differ from local sweep:\n%s\n%s", got, want)
	}
}

func TestManagerResultsBeforeFinishAndBadToken(t *testing.T) {
	block := make(chan struct{})
	m, err := NewManager(Config{Runner: func(ctx context.Context, specs []scenario.Spec,
		gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
		select {
		case <-block:
			return &sweep.Report{}, nil
		case <-ctx.Done():
			return &sweep.Report{Partial: true}, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, err := m.Submit(SubmitRequest{Specs: jobSpecs(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Results(info.ID, "", 0); !errors.Is(err, ErrNotFinished) {
		t.Errorf("results on live job: err = %v, want ErrNotFinished", err)
	}
	close(block)
	waitState(t, m, info.ID, StateDone)
	if _, err := m.Results(info.ID, "not-a-token", 0); !errors.Is(err, ErrPageToken) {
		t.Errorf("bad token: err = %v, want ErrPageToken", err)
	}
	if _, err := m.Results("j-999999", "", 0); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: err = %v, want ErrUnknownJob", err)
	}
}

func TestManagerCancelPreservesPartialReport(t *testing.T) {
	started := make(chan struct{})
	m, err := NewManager(Config{Runner: func(ctx context.Context, specs []scenario.Spec,
		gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
		close(started)
		<-ctx.Done()
		// Mid-run cancellation: hand back what completed, like
		// cluster.Run and sweep.RunContext do.
		return &sweep.Report{
			Outcomes: []sweep.Outcome{{Name: specs[0].Name, Hash: "deadbeef"}},
			Partial:  true,
		}, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	info, err := m.Submit(SubmitRequest{Tenant: "acme", Specs: jobSpecs(t, 3)})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(info.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, info.ID, StateCancelled)
	if !fin.Partial {
		t.Error("cancelled job not marked partial")
	}
	page, err := m.Results(info.ID, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Outcomes) != 1 || page.Outcomes[0].Hash != "deadbeef" {
		t.Errorf("partial outcomes lost: %+v", page.Outcomes)
	}
}

func TestManagerCancelQueuedJobNeverRuns(t *testing.T) {
	ran := make(chan string, 8)
	release := make(chan struct{})
	m, err := NewManager(Config{
		MaxConcurrentJobs: 1,
		Runner: func(ctx context.Context, specs []scenario.Spec,
			gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
			ran <- specs[0].Name
			select {
			case <-release:
				return &sweep.Report{}, nil
			case <-ctx.Done():
				return &sweep.Report{Partial: true}, ctx.Err()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	first, err := m.Submit(SubmitRequest{Specs: jobSpecs(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	<-ran
	queued, err := m.Submit(SubmitRequest{Specs: jobSpecs(t, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, m, queued.ID, StateCancelled)
	if fin.StartedMS != 0 {
		t.Errorf("cancelled-while-queued job reports a start time: %+v", fin)
	}
	close(release)
	waitState(t, m, first.ID, StateDone)
	select {
	case name := <-ran:
		t.Errorf("cancelled queued job still ran (%s)", name)
	default:
	}
}

func TestManagerQueueQuotaRejects(t *testing.T) {
	metrics := telemetry.NewRegistry()
	block := make(chan struct{})
	defer close(block)
	m, err := NewManager(Config{
		MaxQueuedPerTenant: 2,
		Metrics:            metrics,
		Runner: func(ctx context.Context, specs []scenario.Spec,
			gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return &sweep.Report{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for range 2 {
		if _, err := m.Submit(SubmitRequest{Tenant: "greedy", Specs: jobSpecs(t, 6)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit(SubmitRequest{Tenant: "greedy", Specs: jobSpecs(t, 7)}); !errors.Is(err, ErrQuota) {
		t.Fatalf("third submit: err = %v, want ErrQuota", err)
	}
	// Another tenant is not affected by greedy's quota.
	if _, err := m.Submit(SubmitRequest{Tenant: "modest", Specs: jobSpecs(t, 8)}); err != nil {
		t.Fatal(err)
	}
	snap := metrics.Snapshot()
	if snap[`fairness_jobs_quota_rejected_total{tenant="greedy"}`] != 1 {
		t.Errorf("quota rejection not counted: %v", snap)
	}
}

func TestManagerRetentionEvictsOldestFinished(t *testing.T) {
	m, err := NewManager(Config{
		RetainPerTenant: 2,
		Runner: func(ctx context.Context, specs []scenario.Spec,
			gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
			return &sweep.Report{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ids := make([]string, 0, 5)
	for i := range 5 {
		info, err := m.Submit(SubmitRequest{Tenant: "acme", Name: fmt.Sprintf("n%d", i),
			Specs: jobSpecs(t, uint64(20+i))})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, info.ID, StateDone)
		ids = append(ids, info.ID)
	}
	infos, err := m.List("acme", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("retained %d jobs, want 2: %+v", len(infos), infos)
	}
	if infos[0].ID != ids[3] || infos[1].ID != ids[4] {
		t.Errorf("retained wrong jobs: %+v", infos)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("evicted job still resolvable: %v", err)
	}
}

func TestTenantCacheNamespacesAreDisjoint(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup returns the manager's base cache and runner, and whether
		// the runner's workers share the base cache's directory.
		setup func(t *testing.T) (sweep.CacheStore, SweepRunner, bool)
	}{
		{"local", func(t *testing.T) (sweep.CacheStore, SweepRunner, bool) {
			return sweep.NewCache(256), LocalRunner(sweep.Options{}, 8), false
		}},
		{"cluster", func(t *testing.T) (sweep.CacheStore, SweepRunner, bool) {
			// Two workers on the manager's disk cache directory, as in the
			// README's cluster deployment.
			dir := t.TempDir()
			var urls []string
			for range 2 {
				dc, err := sweep.NewDiskCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				urls = append(urls, serveWorker(t, cluster.LocalRunner(sweep.Options{Cache: dc}), nil))
			}
			base, err := sweep.NewDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			return base, ClusterRunner(cluster.Options{Workers: urls}), true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, runner, shared := tc.setup(t)
			m, err := NewManager(Config{Cache: base, Runner: runner})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			specs := jobSpecs(t, 9)

			run := func(tenant string) JobInfo {
				info, err := m.Submit(SubmitRequest{Tenant: tenant, Specs: specs})
				if err != nil {
					t.Fatal(err)
				}
				return waitState(t, m, info.ID, StateDone)
			}
			first := run("alpha")
			if first.Stats.Computed != len(specs) {
				t.Fatalf("cold run computed %d of %d", first.Stats.Computed, len(specs))
			}
			// Same tenant again: warm, everything from its namespace.
			again := run("alpha")
			if again.Stats.CacheHits != len(specs) {
				t.Errorf("warm same-tenant run: %+v", again.Stats)
			}
			// A different tenant must NOT see alpha's entries.
			other := run("beta")
			if other.Stats.Computed != len(specs) {
				t.Errorf("tenant beta warm-started from alpha's cache: %+v", other.Stats)
			}
			if shared {
				// One write per computed outcome, into its tenant's
				// namespace: the workers keep no copy of their own.
				if got, want := base.Len(), first.Stats.Computed+other.Stats.Computed; got != want {
					t.Errorf("shared cache holds %d entries for %d computed outcomes", got, want)
				}
			}
		})
	}
}

func TestClusterRunnerReusesOneConnectionPerWorker(t *testing.T) {
	// A job runner keeps one keep-alive pool: five jobs in a row over two
	// workers open one connection to each, not a pool of their own each.
	var accepted atomic.Int64
	countNew := func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			accepted.Add(1)
		}
	}
	urls := []string{
		serveWorker(t, cluster.LocalRunner(sweep.Options{}), countNew),
		serveWorker(t, cluster.LocalRunner(sweep.Options{}), countNew),
	}
	m, err := NewManager(Config{Runner: ClusterRunner(cluster.Options{Workers: urls})})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := range 5 {
		info, err := m.Submit(SubmitRequest{Tenant: "acme", Specs: jobSpecs(t, uint64(40+i))})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, info.ID, StateDone)
	}
	if got := accepted.Load(); got != int64(len(urls)) {
		t.Errorf("five jobs over %d workers opened %d connections, want one per worker", len(urls), got)
	}
}

func TestClusterRunnerProbesStaticWorkersOnceAndKeepsShardSizes(t *testing.T) {
	// A job runner keeps one worker pool. Its first job probes both
	// static workers and learns their rates from cold shards of two;
	// every later job of six fresh cells probes neither and goes out as
	// one claim sized from those rates. The claim is the job's only
	// request: nothing follows the merged stream.
	var probes, claims, requests atomic.Int64
	serve := func() string {
		ws := cluster.NewWorkerServer(cluster.LocalRunner(sweep.Options{}))
		mux := http.NewServeMux()
		ws.Register(mux)
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			probes.Add(1)
			json.NewEncoder(w).Encode(map[string]any{"status": "ok", "backend": "montecarlo"})
		})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			requests.Add(1)
			if r.URL.Path == "/v1/shard" {
				claims.Add(1)
			}
			mux.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	urls := []string{serve(), serve()}
	m, err := NewManager(Config{
		Runner:   ClusterRunner(cluster.Options{Workers: urls}),
		Capacity: func() int { return 2 * len(urls) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The first job's cells are heavier, so both workers are claiming
	// before either finishes its cold shard and each learns a rate.
	first, err := scenario.Grid{
		Base:      scenario.Spec{Blocks: 1500, Trials: 40, Seed: 59},
		Protocols: []string{"pow", "mlpos"},
		Stake:     []float64{0.2, 0.3, 0.4},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range 4 {
		specs := first
		if i > 0 {
			specs = jobSpecs(t, uint64(60+i))
		}
		p0, c0, r0 := probes.Load(), claims.Load(), requests.Load()
		info, err := m.Submit(SubmitRequest{Tenant: "acme", Specs: specs})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, info.ID, StateDone)
		p, c, r := probes.Load()-p0, claims.Load()-c0, requests.Load()-r0
		switch {
		case i == 0 && p != int64(len(urls)):
			t.Errorf("first job sent %d healthz probes, want %d", p, len(urls))
		case i > 0 && (c != 1 || r != 1):
			t.Errorf("job %d of %d fresh cells sent %d requests (%d healthz probes, %d claims), want 1 claim",
				i+1, len(specs), r, p, c)
		}
	}
}

func TestJobServerHTTPEndToEnd(t *testing.T) {
	m, err := NewManager(Config{Runner: LocalRunner(sweep.Options{}, 4)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mux := http.NewServeMux()
	NewServer(m).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := NewClient(srv.URL)
	ctx := context.Background()

	grid := `{"name":"http-e2e","tenant":"acme","seed":11,` +
		`"spec":{"base":{"blocks":120,"trials":10},"protocols":["pow","slpos"],"stake":[0.2,0.3]}}`
	var body SubmitBody
	if err := json.Unmarshal([]byte(grid), &body); err != nil {
		t.Fatal(err)
	}
	info, err := c.Submit(ctx, body)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "acme" || info.Scenarios != 4 {
		t.Fatalf("submitted: %+v", info)
	}
	fin, err := c.Wait(ctx, info.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s (%s)", fin.State, fin.Error)
	}

	// Paginated retrieval through the HTTP client.
	page, err := c.ResultsPage(ctx, info.ID, "", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Outcomes) != 3 || page.NextPageToken == "" {
		t.Fatalf("first page: %d outcomes, token %q", len(page.Outcomes), page.NextPageToken)
	}
	_, outs, err := c.Results(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 4 {
		t.Fatalf("aggregated %d outcomes, want 4", len(outs))
	}

	// Same sweep locally: the job's merged report must be bit-identical.
	specs, err := scenario.DecodeSpecsOrGrid(body.Spec, body.Seed)
	if err != nil {
		t.Fatal(err)
	}
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := canonical(t, outs), canonical(t, local.Outcomes); got != want {
		t.Errorf("HTTP job outcomes differ from local sweep:\n%s\n%s", got, want)
	}

	// Error surface: unknown id is 404-shaped, listing filters work.
	if _, err := c.Get(ctx, "j-424242"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job: err = %v, want 404", err)
	}
	jobsList, err := c.List(ctx, "acme", StateDone)
	if err != nil || len(jobsList) != 1 {
		t.Errorf("list: %v, %v", jobsList, err)
	}
}

func TestTenantCacheEncodesTenantNamesInjectively(t *testing.T) {
	// Tenant names a file name cannot carry verbatim get their own
	// namespace each: "a b" and "a_b" stay apart, and the ':' in "a:b"
	// does not split the tenant segment of the disk key. Plain names
	// keep their directory.
	dir := t.TempDir()
	base, err := sweep.NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"a b", "a_b", "a:b", "tenant0"}
	for i, tenant := range tenants {
		TenantCache(tenant, base).Add("montecarlo:abcd01", sweep.Outcome{TrialsRun: int64(i + 1)})
	}
	for i, tenant := range tenants {
		out, ok := TenantCache(tenant, base).Get("montecarlo:abcd01")
		if !ok || out.TrialsRun != int64(i+1) {
			t.Errorf("tenant %q: ok=%v trials_run=%d, want its own entry", tenant, ok, out.TrialsRun)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(tenants) {
		t.Errorf("%d tenant directories, want one per tenant: %v", len(entries), entries)
	}
	for _, plain := range []string{"t-a_b", "t-tenant0"} {
		if _, err := os.Stat(filepath.Join(dir, plain)); err != nil {
			t.Errorf("plain tenant directory moved: %v", err)
		}
	}
}

// startJobServer serves a local-runner job manager over HTTP for the
// rest of the test and returns its base URL.
func startJobServer(t *testing.T) string {
	t.Helper()
	m, err := NewManager(Config{Runner: LocalRunner(sweep.Options{}, 4)})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	NewServer(m).Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv.URL
}

// postJob submits body to a job server and returns the HTTP status.
func postJob(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSubmitBoundsTenantNames(t *testing.T) {
	// A tenant name becomes the cache directory "t-" + Segment(tenant).
	// An unbounded one could pass the file-name length limit once
	// encoded, and the tenant cache would then drop every write.
	url := startJobServer(t)
	submit := func(tenant string) int {
		body, err := json.Marshal(SubmitBody{Tenant: tenant,
			Spec: json.RawMessage(`{"base":{"blocks":50,"trials":5},"protocols":["pow"],"stake":[0.2]}`)})
		if err != nil {
			t.Fatal(err)
		}
		return postJob(t, url, body)
	}
	// Every byte of a space-only name is escaped: the longest encoding.
	longest := strings.Repeat(" ", maxTenantBytes)
	if got := submit(longest); got != http.StatusAccepted {
		t.Errorf("%d-byte tenant: status %d, want 202", len(longest), got)
	}
	for _, tenant := range []string{longest + " ", strings.Repeat("a", 300)} {
		if got := submit(tenant); got != http.StatusBadRequest {
			t.Errorf("%d-byte tenant: status %d, want 400", len(tenant), got)
		}
	}

	// The longest admitted name still gets a working disk namespace.
	base, err := sweep.NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	TenantCache(longest, base).Add("montecarlo:abcd01", sweep.Outcome{TrialsRun: 7})
	if out, ok := TenantCache(longest, base).Get("montecarlo:abcd01"); !ok || out.TrialsRun != 7 {
		t.Errorf("longest tenant's cache entry: ok=%v trials_run=%d, want a hit", ok, out.TrialsRun)
	}
}

func TestSubmitOverLimitBodyIs413(t *testing.T) {
	// An over-limit body is refused whole. A truncated read would accept
	// a valid submission padded past the limit, and would report a spec
	// cut off at the limit as malformed JSON.
	url := startJobServer(t)
	valid := `{"spec":{"base":{"blocks":50,"trials":5},"protocols":["pow"],"stake":[0.2]}}`
	padded := valid + strings.Repeat(" ", maxSubmitBytes+100-len(valid))
	longName := `{"name":"` + strings.Repeat("x", maxSubmitBytes) + `",` + valid[1:]
	for name, body := range map[string]string{"padded": padded, "long name": longName} {
		if got := postJob(t, url, []byte(body)); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s body of %d bytes: status %d, want 413", name, len(body), got)
		}
	}
	if got := postJob(t, url, []byte(valid)); got != http.StatusAccepted {
		t.Errorf("valid body: status %d, want 202", got)
	}
}
