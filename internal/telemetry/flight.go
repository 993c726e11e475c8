package telemetry

import (
	"encoding/json"
	"maps"
	"net/http"
	"sort"
	"sync"
	"time"
)

// SpanRecord is one span as the flight recorder stores it and GET
// /v1/traces serves it. For an open span DurationMS is the time elapsed
// so far.
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

// defaultFlightCapacity bounds a zero-capacity flight recorder: enough
// for several full cluster runs of recent history, small enough to be
// irrelevant memory-wise (~a few hundred KB).
const defaultFlightCapacity = 4096

// FlightRecorder is a bounded in-memory ring buffer of recently
// completed spans — the post-hoc view behind GET /v1/traces — plus the
// set of spans started but not yet ended, the live view. When the ring
// is full the oldest span is overwritten; Dropped counts the overwrites
// so consumers can tell a short history from a truncated one. The open
// set needs no bound: every span leaves it at End. All methods are safe
// for concurrent use, and every method on a nil *FlightRecorder is a
// harmless no-op, matching the rest of the telemetry layer.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []SpanRecord
	next    int // write cursor
	full    bool
	dropped int64
	open    map[*Span]struct{}
}

// NewFlightRecorder returns a recorder keeping the most recent capacity
// spans (capacity <= 0 picks the default, 4096).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = defaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]SpanRecord, 0, capacity), open: make(map[*Span]struct{})}
}

// Record appends one completed span, evicting the oldest when full.
func (f *FlightRecorder) Record(s SpanRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recordLocked(s)
}

// begin adds a started span to the open set.
func (f *FlightRecorder) begin(s *Span) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.open[s] = struct{}{}
	f.mu.Unlock()
}

// finish moves an ended span from the open set to the ring in one step,
// so a reader always finds it in exactly one of the two.
func (f *FlightRecorder) finish(s *Span, r SpanRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.open, s)
	f.recordLocked(r)
}

func (f *FlightRecorder) recordLocked(s SpanRecord) {
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, s)
		return
	}
	f.buf[f.next] = s
	f.next = (f.next + 1) % cap(f.buf)
	f.full = true
	f.dropped++
}

// Spans returns the recorded spans oldest-first, filtered to one trace
// when traceID is non-empty ("" returns everything retained).
func (f *FlightRecorder) Spans(traceID string) []SpanRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]SpanRecord, 0, len(f.buf))
	emit := func(s SpanRecord) {
		if traceID == "" || s.TraceID == traceID {
			out = append(out, s)
		}
	}
	if f.full {
		for _, s := range f.buf[f.next:] {
			emit(s)
		}
		for _, s := range f.buf[:f.next] {
			emit(s)
		}
		return out
	}
	for _, s := range f.buf {
		emit(s)
	}
	return out
}

// Open returns the spans started but not yet ended, oldest first,
// filtered to one trace when traceID is non-empty. Each record carries
// a copy of the span's start attributes and the time elapsed so far.
func (f *FlightRecorder) Open(traceID string) []SpanRecord {
	if f == nil {
		return nil
	}
	now := time.Now()
	f.mu.Lock()
	out := make([]SpanRecord, 0, len(f.open))
	for s := range f.open {
		if traceID == "" || s.sc.TraceID == traceID {
			out = append(out, s.record(now.Sub(s.start), maps.Clone(s.attrs)))
		}
	}
	f.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].StartUnixNS < out[b].StartUnixNS })
	return out
}

// Len returns the number of spans currently retained.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Dropped returns how many spans the ring has overwritten.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
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

// TracesHandler serves the flight recorder at GET /v1/traces: all
// retained spans and all open spans oldest-first, or one trace's with
// ?trace_id=. A nil recorder serves empty lists, so the endpoint can be
// mounted unconditionally.
func TracesHandler(rec *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		traceID := r.URL.Query().Get("trace_id")
		spans := rec.Spans(traceID)
		resp := TracesResponse{Spans: spans, Open: rec.Open(traceID),
			Count: len(spans), Dropped: rec.Dropped()}
		if rec != nil {
			rec.mu.Lock()
			resp.Capacity = cap(rec.buf)
			rec.mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
}
