package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"
)

// ringCapacity bounds the completed spans a Tracer retains: enough for
// several full cluster runs of recent history, small enough to be
// irrelevant memory-wise (a few hundred KB).
const ringCapacity = 4096

// Tracer is the one span sink. It keeps the spans started but not yet
// ended, the live view, and a ring of the 4096 most recently completed
// spans, the post-hoc view; GET /v1/traces serves both (TracesHandler).
// When the ring is full the oldest span is overwritten and counted as
// dropped, so a reader can tell a short history from a truncated one.
//
// A tracer built with a writer also writes each span as NDJSON: one JSON
// object per line with a `ts` (RFC 3339, nanoseconds, UTC), an `event`
// name and the span's attributes as further keys. StartSpan writes a
// span_start line and Span.End the matching span_end, so every line is
// one or the other (see the span table in the README). Lines from
// concurrent spans interleave whole, never bytes. Writes hold a lock of
// their own, so a slow trace file never blocks a reader of the ring.
//
// Lines the writer cannot take — a marshal failure or a failed/short
// write — are dropped, never blocking the instrumented path; each drop
// ticks the fairness_trace_dropped_total counter (detached unless the
// tracer was built with NewTracerWithMetrics), so silent trace loss is
// visible on /metrics instead of being discovered during an incident.
//
// All methods are safe for concurrent use. A nil *Tracer records
// nothing, which keeps instrumented code free of "is tracing on"
// branches.
type Tracer struct {
	wmu     sync.Mutex // serialises NDJSON lines on w
	w       io.Writer
	dropped *Counter // fairness_trace_dropped_total

	mu      sync.Mutex // guards ring, next, evicted and open
	ring    []SpanRecord
	next    int // oldest slot once the ring is full
	evicted int64
	open    map[*Span]struct{}
}

// NewTracer returns a tracer that keeps spans in memory and, when w is
// non-nil, also writes them to w as NDJSON. NewTracer(nil) keeps the
// ring and the open spans alone. The caller owns w's lifetime (the
// tracer never closes it). Dropped lines are counted on a detached
// handle; use NewTracerWithMetrics to expose the count.
func NewTracer(w io.Writer) *Tracer { return NewTracerWithMetrics(w, nil) }

// NewTracerWithMetrics is NewTracer with the tracer's drop counter
// registered as fairness_trace_dropped_total on m (nil m = detached
// handle, same behaviour as NewTracer).
func NewTracerWithMetrics(w io.Writer, m *Registry) *Tracer {
	return &Tracer{
		w:       w,
		dropped: m.Counter("fairness_trace_dropped_total"),
		ring:    make([]SpanRecord, 0, ringCapacity),
		open:    make(map[*Span]struct{}),
	}
}

// emit writes one event line. attrs are alternating key, value pairs;
// values marshal as JSON (fmt.Sprint fallback for unmarshalable ones). A
// trailing odd key is ignored. emit on a nil tracer, or one without a
// writer, does nothing.
func (t *Tracer) emit(event string, attrs ...any) {
	if t == nil || t.w == nil {
		return
	}
	obj := make(map[string]any, 2+len(attrs)/2)
	obj["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
	obj["event"] = event
	for i := 0; i+1 < len(attrs); i += 2 {
		k, ok := attrs[i].(string)
		if !ok {
			k = fmt.Sprint(attrs[i])
		}
		obj[k] = jsonSafe(attrs[i+1])
	}
	line, err := json.Marshal(obj)
	if err != nil { // near-unreachable: jsonSafe sanitised every value
		t.dropped.Inc()
		return
	}
	line = append(line, '\n')
	t.wmu.Lock()
	n, err := t.w.Write(line)
	t.wmu.Unlock()
	if err != nil || n < len(line) {
		t.dropped.Inc()
	}
}

func jsonSafe(v any) any {
	if _, err := json.Marshal(v); err != nil {
		return fmt.Sprint(v)
	}
	return v
}

// begin adds a started span to the open set.
func (t *Tracer) begin(s *Span) {
	t.mu.Lock()
	t.open[s] = struct{}{}
	t.mu.Unlock()
}

// finish moves an ended span from the open set to the ring in one step,
// so a reader always finds it in exactly one of the two, and evicts the
// oldest completed span when the ring is full.
func (t *Tracer) finish(s *Span, r SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.open, s)
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
		return
	}
	t.ring[t.next] = r
	t.next = (t.next + 1) % cap(t.ring)
	t.evicted++
}

// SpanRecord is one span as the tracer keeps it and GET /v1/traces
// serves it. For an open span DurationMS is the time elapsed so far.
type SpanRecord struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_span_id,omitempty"`
	Name        string            `json:"name"`
	Service     string            `json:"service,omitempty"`
	StartUnixNS int64             `json:"start_unix_ns"`
	DurationMS  float64           `json:"duration_ms"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// EndUnixNS returns the span's wall-clock end, derived from its start
// and monotonic duration.
func (r SpanRecord) EndUnixNS() int64 {
	return r.StartUnixNS + int64(r.DurationMS*1e6)
}

// TracesResponse is the GET /v1/traces body: Spans holds completed
// spans only (Count of them), Open the spans still in flight.
type TracesResponse struct {
	Spans    []SpanRecord `json:"spans"`
	Open     []SpanRecord `json:"open"`
	Count    int          `json:"count"`
	Capacity int          `json:"capacity"`
	Dropped  int64        `json:"dropped"`
}

// Snapshot returns the retained completed spans oldest-first and the
// open spans by start time, each list filtered to one trace when
// traceID is non-empty ("" returns everything), with the ring's capacity
// and eviction count. Both lists are read under one lock, so a span that
// ends during the read is in exactly one of them. Each open record
// carries a copy of the span's start attributes and the time elapsed so
// far. A nil tracer returns empty lists.
func (t *Tracer) Snapshot(traceID string) TracesResponse {
	if t == nil {
		return TracesResponse{Spans: []SpanRecord{}, Open: []SpanRecord{}}
	}
	t.mu.Lock()
	now := time.Now()
	// Oldest first: next stays 0 until the ring is full.
	spans := append(append(make([]SpanRecord, 0, len(t.ring)), t.ring[t.next:]...), t.ring[:t.next]...)
	resp := TracesResponse{Open: make([]SpanRecord, 0, len(t.open)), Capacity: cap(t.ring), Dropped: t.evicted}
	for s := range t.open {
		if traceID == "" || s.sc.TraceID == traceID {
			resp.Open = append(resp.Open, s.record(now.Sub(s.start), maps.Clone(s.attrs)))
		}
	}
	t.mu.Unlock()
	if traceID != "" {
		spans = slices.DeleteFunc(spans, func(r SpanRecord) bool { return r.TraceID != traceID })
	}
	resp.Spans, resp.Count = spans, len(spans)
	sort.Slice(resp.Open, func(a, b int) bool { return resp.Open[a].StartUnixNS < resp.Open[b].StartUnixNS })
	return resp
}

// TracesHandler serves a tracer's Snapshot at GET /v1/traces: all
// retained and all open spans, or one trace's with ?trace_id=. A nil
// tracer serves empty lists, so the endpoint can be mounted
// unconditionally.
func TracesHandler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(t.Snapshot(r.URL.Query().Get("trace_id")))
	})
}
