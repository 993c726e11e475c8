// Package telemetry is the repo's dependency-free observability layer:
// a process-local metrics registry (counters, gauges, histograms with
// exact snapshot semantics) plus spans, held by one Tracer (open spans
// and a ring of completed ones) and optionally written as an NDJSON
// stream of span_start/span_end events. It is the single source of
// truth every surface reads from — the sweep engine's
// per-backend latency histograms, the cluster's shard-lifecycle
// counters, fairnessd's healthz, the Prometheus-text /metrics endpoints
// and `fairctl top` all observe the same handles.
//
// Design constraints, in order:
//
//   - No dependencies. The exposition format is the Prometheus text
//     format (version 0.0.4), hand-rolled, so any scraper works without
//     pulling a client library into a reproducibility repo.
//   - Cheap on the hot path. Counters and gauges are single atomics;
//     callers resolve handles once (Registry.Counter et al. are
//     registration, not lookup-per-increment). Histograms take a mutex,
//     which is fine at the rates they are observed (per scenario or per
//     shard, not per block).
//   - Nil-safe. Methods on a nil *Registry return detached handles,
//     and a span with a nil *Tracer records nothing, so instrumented
//     code never branches on "is telemetry configured".
//   - Exact snapshots. WritePrometheus and Snapshot read histograms
//     under their lock: the sum, count and bucket counts in one
//     exposition are mutually consistent, never torn.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency buckets, in seconds. They match the
// Prometheus client defaults with two sub-millisecond buckets prepended,
// because theory-backend evaluations finish in microseconds.
var DefBuckets = []float64{0.0001, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; counters obtained from a nil registry work but are detached
// (nothing exposes them).
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets and
// tracks their sum. Observations and snapshots are serialised by a
// mutex, so a snapshot is always internally consistent (count equals the
// bucket total, sum matches the observations counted) — the "exact
// snapshot semantics" the sweep latency reconciliation tests rely on.
type Histogram struct {
	mu     sync.Mutex
	uppers []float64 // ascending upper bounds; the +Inf bucket is implicit
	counts []uint64  // len(uppers)+1, per-bucket (not cumulative)
	sum    float64
	count  uint64
}

func newHistogram(buckets []float64) *Histogram {
	uppers := append([]float64(nil), buckets...)
	sort.Float64s(uppers)
	// Drop duplicates and a trailing +Inf (it is implicit).
	dst := uppers[:0]
	for _, u := range uppers {
		if math.IsInf(u, +1) {
			continue
		}
		if len(dst) == 0 || u > dst[len(dst)-1] {
			dst = append(dst, u)
		}
	}
	uppers = dst
	return &Histogram{uppers: uppers, counts: make([]uint64, len(uppers)+1)}
}

// Observe records one value. A value lands in the first bucket whose
// upper bound is >= v (Prometheus `le` semantics); values above every
// bound land in the implicit +Inf bucket.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistSnapshot is a consistent point-in-time copy of a histogram.
type HistSnapshot struct {
	Uppers []float64 // bucket upper bounds, ascending; +Inf is implicit
	Counts []uint64  // per-bucket counts; len(Uppers)+1 with the +Inf bucket last
	Sum    float64
	Count  uint64
}

// Snapshot returns a consistent copy of the histogram's state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Uppers: append([]float64(nil), h.uppers...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// Registry holds named metric series. Handles are registered on first
// use and shared on every later request with the same name and labels;
// asking for an existing name with a different metric kind (or a
// histogram with different buckets) panics, because that is a
// programming error no exposition format can represent.
//
// A nil *Registry is valid everywhere and hands out detached handles, so
// instrumented packages never need a "telemetry configured?" branch.
type Registry struct {
	mu       sync.Mutex
	kinds    map[string]string // base name -> "counter" | "gauge" | "histogram"
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    map[string]string{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry. Packages without an
// injection point (internal/montecarlo, internal/chainsim) tick global
// totals here; fairnessd and the fairctl coordinator expose it alongside
// their own registries.
func Default() *Registry { return defaultRegistry }

// Counter returns (registering on first use) the counter with the given
// name and label pairs. Labels are alternating key, value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	id := SeriesID(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "counter")
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
	}
	return c
}

// Gauge returns (registering on first use) the gauge with the given name
// and label pairs.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	id := SeriesID(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "gauge")
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (registering on first use) the histogram with the
// given name, buckets and label pairs. Buckets matter only on first
// registration of a name; a later request with different buckets panics.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return newHistogram(buckets)
	}
	id := SeriesID(name, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, "histogram")
	h, ok := r.hists[id]
	if !ok {
		h = newHistogram(buckets)
		r.hists[id] = h
	} else if got := newHistogram(buckets); len(got.uppers) != len(h.uppers) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with different buckets", name))
	}
	return h
}

func (r *Registry) checkKind(name, kind string) {
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, have, kind))
	}
	r.kinds[name] = kind
}

// SeriesID canonicalises a metric name and label pairs into the
// Prometheus series identity `name{k="v",...}` with keys sorted, or bare
// `name` without labels. It is the key format of Snapshot and ParseText.
func SeriesID(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	n := len(labels) / 2 * 2 // ignore a trailing odd key
	type kv struct{ k, v string }
	pairs := make([]kv, 0, n/2)
	for i := 0; i < n; i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Snapshot returns every series as the flat id -> value map the text
// exposition would produce: counters and gauges under their series id,
// histograms as their `_bucket` (cumulative, with `le`), `_sum` and
// `_count` series. It is defined as ParseText(WritePrometheus(...)), so
// the snapshot and the scraped endpoint can never disagree.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return map[string]float64{}
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	m, err := ParseText(strings.NewReader(b.String()))
	if err != nil { // unreachable: we just wrote it
		panic(fmt.Sprintf("telemetry: snapshot round-trip: %v", err))
	}
	return m
}
