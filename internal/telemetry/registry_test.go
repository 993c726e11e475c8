package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryRace hammers one registry from many goroutines —
// concurrent registration, increments, observations and snapshots — so
// `go test -race` proves the hot path is race-free.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			backend := []string{"montecarlo", "theory", "chainsim"}[g%3]
			c := r.Counter("race_scenarios_total", "backend", backend)
			ga := r.Gauge("race_inflight")
			h := r.Histogram("race_seconds", DefBuckets, "backend", backend)
			for i := 0; i < iters; i++ {
				c.Inc()
				ga.Add(1)
				h.Observe(float64(i) / 1000)
				ga.Add(-1)
				if i%50 == 0 {
					r.Snapshot()
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	total := 0.0
	for id, v := range snap {
		if strings.HasPrefix(id, "race_scenarios_total{") {
			total += v
		}
	}
	if want := float64(goroutines * iters); total != want {
		t.Fatalf("race_scenarios_total = %v, want %v", total, want)
	}
	if got := snap["race_inflight"]; got != 0 {
		t.Fatalf("race_inflight = %v after balanced adds, want 0", got)
	}
}

// TestHistogramBucketBoundaries is the bucket-boundary property test:
// for every configured upper bound u, an observation of exactly u must
// land in the bucket with `le == u` (Prometheus le semantics are
// inclusive), an observation just above must not, and the cumulative
// counts must be non-decreasing and end at the total count.
func TestHistogramBucketBoundaries(t *testing.T) {
	uppers := []float64{0.01, 0.1, 1, 10}
	h := newHistogram(uppers)
	// One observation exactly on each boundary, one just above each
	// boundary, and one far beyond everything.
	for _, u := range uppers {
		h.Observe(u)
		h.Observe(u * (1 + 1e-9))
	}
	h.Observe(1e6)
	s := h.Snapshot()
	if s.Count != uint64(2*len(uppers)+1) {
		t.Fatalf("Count = %d, want %d", s.Count, 2*len(uppers)+1)
	}
	// Per-bucket expectations: bucket i (le = uppers[i]) holds the exact
	// boundary observation of uppers[i] plus the just-above observation
	// of uppers[i-1].
	for i := range uppers {
		want := uint64(1)
		if i > 0 {
			want = 2
		}
		if s.Counts[i] != want {
			t.Errorf("bucket le=%v count = %d, want %d", uppers[i], s.Counts[i], want)
		}
	}
	// +Inf bucket: the just-above observation of the last bound plus the
	// far-out one.
	if inf := s.Counts[len(uppers)]; inf != 2 {
		t.Errorf("+Inf bucket count = %d, want 2", inf)
	}
	// Cumulative form must be non-decreasing and end at Count.
	cum := uint64(0)
	for i, c := range s.Counts {
		next := cum + c
		if next < cum {
			t.Fatalf("bucket %d overflows cumulative count", i)
		}
		cum = next
	}
	if cum != s.Count {
		t.Fatalf("cumulative bucket total = %d, want Count = %d", cum, s.Count)
	}
}

func TestHistogramNormalisesBuckets(t *testing.T) {
	h := newHistogram([]float64{5, 1, 5, math.Inf(1), 2})
	want := []float64{1, 2, 5}
	s := h.Snapshot()
	if len(s.Uppers) != len(want) {
		t.Fatalf("uppers = %v, want %v", s.Uppers, want)
	}
	for i := range want {
		if s.Uppers[i] != want[i] {
			t.Fatalf("uppers = %v, want %v", s.Uppers, want)
		}
	}
}

// TestExpositionRoundTrip checks WritePrometheus output parses back via
// ParseText with every series intact — the invariant `fairctl top`, the
// golden tests and CI reconciliation depend on.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "backend", "montecarlo", "phase", "cold").Add(42)
	r.Counter("rt_total", "backend", "theory", "phase", "warm").Add(7)
	r.Gauge("rt_rate", "worker", `http://h:1/with"quote`).Set(3.5)
	h := r.Histogram("rt_seconds", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	got, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	want := map[string]float64{
		`rt_total{backend="montecarlo",phase="cold"}`: 42,
		`rt_total{backend="theory",phase="warm"}`:     7,
		`rt_rate{worker="http://h:1/with\"quote"}`:    3.5,
		`rt_seconds_bucket{le="0.5"}`:                 1,
		`rt_seconds_bucket{le="1"}`:                   2,
		`rt_seconds_bucket{le="+Inf"}`:                3,
		`rt_seconds_sum`:                              3,
		`rt_seconds_count`:                            3,
	}
	for id, v := range want {
		if got[id] != v {
			t.Errorf("%s = %v, want %v (exposition:\n%s)", id, got[id], v, b.String())
		}
	}
	// Snapshot must agree with the scrape by construction.
	snap := r.Snapshot()
	if len(snap) != len(got) {
		t.Errorf("Snapshot has %d series, scrape has %d", len(snap), len(got))
	}
}

// TestNilSafety: a nil registry and tracer must hand out working no-op
// handles so instrumented code can run unconfigured.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatalf("detached counter Value = %d, want 1", c.Value())
	}
	r.Gauge("y").Set(2)
	r.Histogram("z", DefBuckets).Observe(1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatal("nil registry wrote exposition")
	}
	var tr *Tracer
	tr.emit("noop", "k", 1) // must not panic
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestTracerEmitsNDJSON(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(&b)
	tr.emit("sweep_start", "backend", "montecarlo", "scenarios", 24)
	tr.emit("sweep_done", "odd_trailing_key")
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), b.String())
	}
	if !strings.Contains(lines[0], `"event":"sweep_start"`) ||
		!strings.Contains(lines[0], `"backend":"montecarlo"`) ||
		!strings.Contains(lines[0], `"scenarios":24`) ||
		!strings.Contains(lines[0], `"ts":`) {
		t.Fatalf("line 0 = %s", lines[0])
	}
	if !strings.Contains(lines[1], `"event":"sweep_done"`) {
		t.Fatalf("line 1 = %s", lines[1])
	}
}
