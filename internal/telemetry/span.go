package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header that carries a span context across
// process hops ("<trace_id>-<span_id>"): the coordinator stamps it on
// every POST /v1/shard claim, and the worker parents its eval span under
// it — one trace_id stitches a job's whole lifetime together.
const TraceHeader = "X-Fairness-Trace"

// SpanContext identifies one span within one trace. The zero value is
// "no context": StartSpan treats it as "mint a fresh trace".
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// HeaderValue encodes the context for the TraceHeader wire format.
func (sc SpanContext) HeaderValue() string { return sc.TraceID + "-" + sc.SpanID }

// ParseTraceHeader decodes a TraceHeader value. Absent or malformed
// headers return ok=false — the receiver then roots a fresh trace, so a
// pre-tracing coordinator still works against a tracing worker.
func ParseTraceHeader(v string) (SpanContext, bool) {
	v = strings.TrimSpace(v)
	traceID, spanID, ok := strings.Cut(v, "-")
	if !ok || traceID == "" || spanID == "" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: traceID, SpanID: spanID}
	return sc, true
}

// newID returns a 16-hex-char random identifier (64 random bits). IDs
// must be unique, not secret, so the runtime's generator serves: it
// needs no system call, and a sink-less span pays one allocation per ID.
func newID() string {
	var raw [8]byte
	binary.BigEndian.PutUint64(raw[:], rand.Uint64())
	var dst [16]byte
	hex.Encode(dst[:], raw[:])
	return string(dst[:])
}

// Span is one timed operation in a trace. Start one with StartSpan and
// finish it with End; the pair emits span_start/span_end NDJSON events
// on the tracer, and the flight recorder holds the span in its open set
// from start to end, then keeps the completed record. Durations are
// monotonic (time.Since on the captured start), immune to wall-clock
// steps. A nil *Span is a no-op whose Context is zero.
type Span struct {
	tracer   *Tracer
	recorder *FlightRecorder
	sc       SpanContext
	parent   string
	service  string
	name     string
	start    time.Time         // carries the monotonic clock reading
	attrs    map[string]string // start attributes; never written after StartSpan
	ended    atomic.Bool
}

// StartSpan opens a span named name under parent (a zero parent mints a
// fresh trace and roots the span). service labels the process role
// ("jobs", "coordinator", "worker", "local"). attrs are alternating key,
// value pairs recorded on the span and emitted with the span_start
// event. tr and rec may each be nil: the span still carries a usable
// Context, so propagation works even when nothing records it, and with
// both nil it builds no attribute map and no event. A non-nil rec lists
// the span among its open spans until End.
func StartSpan(tr *Tracer, rec *FlightRecorder, parent SpanContext, service, name string, attrs ...any) *Span {
	s := &Span{
		tracer:   tr,
		recorder: rec,
		sc:       SpanContext{TraceID: parent.TraceID, SpanID: newID()},
		service:  service,
		name:     name,
		start:    time.Now(),
	}
	if parent.Valid() {
		s.parent = parent.SpanID
	} else {
		s.sc.TraceID = newID()
	}
	if rec != nil && len(attrs) > 1 {
		s.attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			s.attrs[fmt.Sprint(attrs[i])] = fmt.Sprint(attrs[i+1])
		}
	}
	if tr != nil {
		tr.emit("span_start", s.event(attrs, nil)...)
	}
	rec.begin(s)
	return s
}

// event assembles a span line's attributes: the span's identity, its
// duration when dur is non-nil (span_end), then attrs.
func (s *Span) event(attrs []any, dur any) []any {
	ev := make([]any, 0, 10+len(attrs))
	ev = append(ev, "trace_id", s.sc.TraceID, "span_id", s.sc.SpanID,
		"span", s.name, "service", s.service)
	if dur != nil {
		ev = append(ev, "duration_ms", dur)
	}
	if s.parent != "" {
		ev = append(ev, "parent_span_id", s.parent)
	}
	return append(ev, attrs...)
}

// Context returns the span's context — what callers propagate to
// children (in-process via ContextWithSpan, cross-process via
// TraceHeader). A nil span returns the zero context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// End closes the span: it emits the span_end event with the monotonic
// duration and moves the span from the flight recorder's open set to its
// completed ring. End is idempotent — only the first call counts, so
// requeue/retry paths that converge on the same span can never
// double-close it. attrs are appended to the span's recorded attributes.
func (s *Span) End(attrs ...any) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	if s.tracer == nil && s.recorder == nil {
		return
	}
	d := time.Since(s.start)
	if s.tracer != nil {
		s.tracer.emit("span_end", s.event(attrs, float64(d.Microseconds())/1000)...)
	}
	if s.recorder == nil {
		return
	}
	// The completed record gets its own map: Open may be copying the
	// start attributes concurrently.
	all := s.attrs
	if len(attrs) > 1 {
		all = make(map[string]string, len(s.attrs)+len(attrs)/2)
		maps.Copy(all, s.attrs)
		for i := 0; i+1 < len(attrs); i += 2 {
			all[fmt.Sprint(attrs[i])] = fmt.Sprint(attrs[i+1])
		}
	}
	s.recorder.finish(s, s.record(d, all))
}

// record renders the span as a SpanRecord lasting d with attrs.
func (s *Span) record(d time.Duration, attrs map[string]string) SpanRecord {
	return SpanRecord{
		TraceID:     s.sc.TraceID,
		SpanID:      s.sc.SpanID,
		ParentID:    s.parent,
		Name:        s.name,
		Service:     s.service,
		StartUnixNS: s.start.UnixNano(),
		DurationMS:  float64(d.Microseconds()) / 1000,
		Attrs:       attrs,
	}
}

// Context plumbing: the active span context and the trace baggage
// (tenant/job labels) ride the context.Context through the in-process
// layers — job manager → runner → cluster coordinator — and cross the
// process boundary as the TraceHeader and the shard request's labels.

type spanCtxKey struct{}
type baggageKey struct{}

// ContextWithSpan returns a context carrying sc as the active span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom returns the active span context, or the zero context.
func SpanContextFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// ContextWithBaggage returns a context carrying trace baggage — small
// string labels (tenant, job) that downstream spans and pprof profiles
// attach. The map must not be mutated after the call.
func ContextWithBaggage(ctx context.Context, bag map[string]string) context.Context {
	if len(bag) == 0 {
		return ctx
	}
	return context.WithValue(ctx, baggageKey{}, bag)
}

// BaggageFrom returns the context's trace baggage (nil when unset).
func BaggageFrom(ctx context.Context) map[string]string {
	bag, _ := ctx.Value(baggageKey{}).(map[string]string)
	return bag
}
