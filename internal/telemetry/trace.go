package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Tracer writes a trace as NDJSON: one JSON object per line with a `ts`
// (RFC 3339, nanoseconds, UTC), an `event` name, and the event's
// attributes as further keys. Spans are the only thing it carries:
// StartSpan writes a span_start line and Span.End the matching span_end,
// so every line is one or the other (see the span table in the README).
//
// Writes are serialised by a mutex, so events from concurrent workers
// interleave whole lines, never bytes. A nil *Tracer is a no-op, which
// keeps instrumented code free of "is tracing on" branches.
//
// Events the sink cannot take — a marshal failure or a failed/short
// write — are dropped, never blocking the instrumented path; each drop
// ticks the fairness_trace_dropped_total counter (detached unless the
// tracer was built with NewTracerWithMetrics), so silent trace loss is
// visible on /metrics instead of being discovered during an incident.
type Tracer struct {
	mu      sync.Mutex
	w       io.Writer
	dropped *Counter // fairness_trace_dropped_total
}

// NewTracer returns a tracer writing NDJSON span events to w. The caller
// owns w's lifetime (the tracer never closes it). Dropped events are
// counted on a detached handle; use NewTracerWithMetrics to expose the
// count.
func NewTracer(w io.Writer) *Tracer { return NewTracerWithMetrics(w, nil) }

// NewTracerWithMetrics is NewTracer with the tracer's drop counter
// registered as fairness_trace_dropped_total on m (nil m = detached
// handle, same behaviour as NewTracer).
func NewTracerWithMetrics(w io.Writer, m *Registry) *Tracer {
	return &Tracer{w: w, dropped: m.Counter("fairness_trace_dropped_total")}
}

// emit writes one event line. attrs are alternating key, value pairs;
// values marshal as JSON (fmt.Sprint fallback for unmarshalable ones). A
// trailing odd key is ignored. emit on a nil tracer does nothing.
func (t *Tracer) emit(event string, attrs ...any) {
	if t == nil {
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
	t.mu.Lock()
	n, err := t.w.Write(line)
	t.mu.Unlock()
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
