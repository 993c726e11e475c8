package main

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // percentile must not depend on order
	for _, c := range []struct {
		p    float64
		want float64
	}{{0, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {90, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of %v = %v, want %v", c.p, xs, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input: %v", xs)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestRankIsExactAtWholeRanks(t *testing.T) {
	// 0.9*100 is 90.00000000000001 in floating point; the rank must
	// still be 90, or p90 of 100 samples would leave 9 beyond it.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 90}, {110, 90, 99}, {1000, 90, 900}, {4, 50, 2}, {5, 50, 3}, {1, 90, 1}, {10, 0, 1}} {
		if got := rank(c.n, c.p); got != c.want {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	// The smallest sample count that leaves minTail samples beyond the
	// percentile: 100 for p90, 20 for p50.
	for _, c := range []struct {
		p    float64
		want int
	}{{90, 100}, {50, 20}, {99, 1000}} {
		n := 1
		for !enoughFor(n, c.p) {
			n++
		}
		if n != c.want {
			t.Errorf("p%v needs %d samples, want %d", c.p, n, c.want)
		}
		if got := beyond(n, c.p); got != minTail {
			t.Errorf("p%v of %d samples leaves %d beyond, want %d", c.p, n, got, minTail)
		}
	}
	if enoughFor(99, 90) {
		t.Error("99 samples leave only 9 beyond p90")
	}
	if minRequests < 100 {
		t.Errorf("minRequests = %d cannot support p90", minRequests)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"overlapping", []interval{{10, 50}, {40, 70}}, 40},
		{"duplicate", []interval{{10, 50}, {10, 50}}, 60},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"unsorted chain", []interval{{60, 80}, {0, 10}, {5, 65}}, 20},
		{"spills past parent", []interval{{-10, 5}, {90, 120}}, 85},
		{"outside parent", []interval{{100, 120}, {-20, 0}}, 100},
		{"covers parent", []interval{{-5, 200}, {10, 20}}, 0},
		{"empty child", []interval{{30, 30}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpanMetricsSelfTimeUsesOwnChildren(t *testing.T) {
	// Two sweep calls; each evaluate/cache span counts only against its
	// own parent, and overlapping children count once.
	spans := []span{
		{id: 1, kind: kSweep, start: 0, end: 100, n: 2},
		{id: 2, kind: kSweep, start: 200, end: 300, n: 2},
		{id: 3, parent: 1, kind: kEval, start: 10, end: 60, proto: "pow", trials: 5, steps: 50},
		{id: 4, parent: 1, kind: kGet, start: 40, end: 80, hit: false},
		{id: 5, parent: 2, kind: kGet, start: 210, end: 220, hit: true},
		{id: 6, parent: 2, kind: kPut, start: 250, end: 260},
	}
	m := spanMetrics(spans)
	// Sweep 1: 100 - 70 covered = 30; sweep 2: 100 - 20 = 80; over 4 scenarios.
	if got, want := m["sweep.self_us_per_scenario"], (30.0+80.0)/1e3/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("self_us_per_scenario = %v, want %v", got, want)
	}
	if got := m["protocol.step_ns.pow"]; got != 1 {
		t.Errorf("step_ns.pow = %v, want 50ns/50 steps = 1", got)
	}
	if got := m["cachestore.hit_ratio"]; got != 0.5 {
		t.Errorf("hit_ratio = %v, want 0.5", got)
	}
	if got := m["cachestore.puts_per_computed"]; got != 1 {
		t.Errorf("puts_per_computed = %v, want 1", got)
	}
	if _, ok := m["cluster.shard_ms"]; ok {
		t.Error("shard_ms reported without any shard span")
	}
}

func TestRusageConversions(t *testing.T) {
	if got := timevalDuration(syscall.Timeval{Sec: 2, Usec: 500000}); got != 2500*time.Millisecond {
		t.Errorf("timevalDuration = %v, want 2.5s", got)
	}
	if got := maxRSSBytes(1024); got != 1<<20 {
		t.Errorf("maxRSSBytes(1024 KiB) = %d, want %d", got, 1<<20)
	}
	if got := mib(3 << 20); got != 3 {
		t.Errorf("mib = %v, want 3", got)
	}
	if got, err := parseStatmResident("5000 1234 300 10 0 900 0\n", 4096); err != nil || got != 1234*4096 {
		t.Errorf("parseStatmResident = %d, %v; want %d", got, err, 1234*4096)
	}
	for _, bad := range []string{"", "5000", "5000 x 1"} {
		if _, err := parseStatmResident(bad, 4096); err == nil {
			t.Errorf("parseStatmResident(%q) accepted a malformed line", bad)
		}
	}
}

var sink []byte

func TestReadUsageTracksCPUAndPeakRSS(t *testing.T) {
	before, err := readUsage()
	if err != nil {
		t.Fatal(err)
	}
	// Spin for 100ms of wall time on this goroutine: process CPU must
	// grow by most of it.
	spin := 100 * time.Millisecond
	x := 0
	for start := time.Now(); time.Since(start) < spin; {
		x++
	}
	// Touch 48 MiB so the resident high-water mark must rise.
	sink = make([]byte, 48<<20)
	for i := range sink {
		sink[i] = byte(i + x)
	}
	after, err := readUsage()
	if err != nil {
		t.Fatal(err)
	}
	if got := after.cpu - before.cpu; got < spin/2 {
		t.Errorf("CPU grew %v over a %v spin", got, spin)
	}
	if after.maxRSS < 48<<20 {
		t.Errorf("peak RSS %d bytes after touching 48 MiB", after.maxRSS)
	}
	if after.maxRSS < before.maxRSS {
		t.Errorf("peak RSS fell from %d to %d", before.maxRSS, after.maxRSS)
	}
	rss, err := residentBytes()
	if err != nil {
		t.Fatal(err)
	}
	if rss < 48<<20 || rss > after.maxRSS+(1<<20) {
		t.Errorf("resident set %d bytes while holding 48 MiB under a %d-byte peak", rss, after.maxRSS)
	}
	sink = nil
}

func TestTracedEvaluatorKeepsTheRunnersSemantics(t *testing.T) {
	ev := newTracedEvaluator(newTracer(), "local")
	if ev.Name() != "montecarlo" || ev.Capabilities().Backend != "montecarlo" {
		t.Errorf("wrapper reports %q / %q, want the inner montecarlo name and capabilities",
			ev.Name(), ev.Capabilities().Backend)
	}
	a := scenario.Spec{Protocol: "pow", Stake: 0.2, Trials: 4, Blocks: 10}
	b := a
	b.Stake = 0.3
	procs := runtime.GOMAXPROCS(0)
	want := procs
	if procs > 1 {
		want = 1
	}
	if got := runnerTrialWorkers(0, []scenario.Spec{a, b}); got != want {
		t.Errorf("two distinct scenarios: %d trial workers, want %d", got, want)
	}
	if got := runnerTrialWorkers(0, []scenario.Spec{a, a}); got != procs {
		t.Errorf("one unique scenario: %d trial workers, want GOMAXPROCS %d", got, procs)
	}
	// Traced or not, the wrapper answers exactly like the bare evaluator.
	bare, err := (&sweep.MonteCarloEvaluator{}).Evaluate(context.Background(), a.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	ev.t.on.Store(true)
	got, err := ev.Evaluate(withRef(context.Background(), ref{trialWorkers: 1}), a.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != bare.Verdict || got.TrialsRun != bare.TrialsRun {
		t.Errorf("traced evaluation %+v differs from bare %+v", got, bare)
	}
	if spans := ev.t.snapshot(); len(spans) != 1 || spans[0].steps != 40 || spans[0].proto != "pow" {
		t.Errorf("spans = %+v, want one evaluate span of 40 pow steps", spans)
	}
}

func TestTracedTransportCountsStreamedBytes(t *testing.T) {
	body := strings.Repeat("x", 64<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, body)
	}))
	defer srv.Close()
	tr := newTracer()
	tr.on.Store(true)
	client := &http.Client{Transport: &tracedTransport{t: tr, inner: http.DefaultTransport}}
	resp, err := client.Post(srv.URL+"/v1/shard", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.snapshot()); n != 0 {
		t.Errorf("%d spans recorded before the body was read", n)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil || len(got) != len(body) {
		t.Fatalf("read %d bytes, %v", len(got), err)
	}
	resp.Body.Close()
	spans := tr.snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans, want one ending at EOF", len(spans))
	}
	if s := spans[0]; !s.shard || s.failed || s.n != int64(len(body))+2 {
		t.Errorf("span %+v, want a shard claim of %d bytes", s, len(body)+2)
	}
}

// shardBarrier is a cache whose Gets all wait until each of two shards
// has issued one, so both shards' sweep spans are open at once.
type shardBarrier struct {
	sweep.CacheStore
	shardOf map[string]int // cache key -> shard
	first   [2]sync.Once
	both    sync.WaitGroup
}

func (c *shardBarrier) Get(key string) (sweep.Outcome, bool) {
	c.first[c.shardOf[key]].Do(c.both.Done)
	c.both.Wait()
	return c.CacheStore.Get(key)
}

func TestCacheSpansParentOnTheirOwnShard(t *testing.T) {
	// One worker runs two jobs' shards at once. Every cache and evaluate
	// span must be filed under its own shard's sweep span.
	shards := [2][]scenario.Spec{}
	cache := &shardBarrier{CacheStore: sweep.NewCache(64), shardOf: map[string]int{}}
	cache.both.Add(2)
	for i, proto := range []string{"pow", "mlpos"} {
		for _, a := range []float64{0.1, 0.2, 0.3} {
			s := scenario.Spec{Protocol: proto, Stake: a, Trials: 4, Blocks: 10}
			shards[i] = append(shards[i], s)
			cache.shardOf[sweep.CacheKey("montecarlo", s.MustHash())] = i
		}
	}
	tr := newTracer()
	tr.on.Store(true)
	run := tracedRunFunc(tr, "worker0", cache)
	var wg sync.WaitGroup
	for i, specs := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := telemetry.ContextWithBaggage(context.Background(), map[string]string{"job": []string{"jobA", "jobB"}[i]})
			if _, err := run(ctx, specs, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	sweeps := map[uint64]span{}
	for _, s := range tr.snapshot() {
		if s.kind == kSweep {
			sweeps[s.id] = s
		}
	}
	if len(sweeps) != 2 {
		t.Fatalf("%d sweep spans, want one per shard", len(sweeps))
	}
	children := map[uint64]map[kind]int{}
	for _, s := range tr.snapshot() {
		if s.kind == kSweep {
			continue
		}
		p, ok := sweeps[s.parent]
		if !ok || p.request != s.request {
			t.Errorf("%v span of %q filed under %+v", s.kind, s.request, p)
			continue
		}
		if children[p.id] == nil {
			children[p.id] = map[kind]int{}
		}
		children[p.id][s.kind]++
	}
	for id, s := range sweeps {
		if c := children[id]; c[kGet] != 3 || c[kPut] != 3 || c[kEval] != 3 {
			t.Errorf("shard %q has children %v, want 3 gets, puts and evaluations", s.request, c)
		}
	}
}
