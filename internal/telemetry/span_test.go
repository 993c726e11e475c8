package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// decodeEvents parses a tracer buffer's NDJSON lines.
func decodeEvents(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var events []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, obj)
	}
	return events
}

func TestStartSpanMintsTraceAndParentsChildren(t *testing.T) {
	root := StartSpan(nil, nil, SpanContext{}, "jobs", "job")
	rc := root.Context()
	if !rc.Valid() {
		t.Fatalf("root context invalid: %+v", rc)
	}
	child := StartSpan(nil, nil, rc, "coordinator", "sweep")
	cc := child.Context()
	if cc.TraceID != rc.TraceID {
		t.Errorf("child trace %q, want parent's %q", cc.TraceID, rc.TraceID)
	}
	if cc.SpanID == rc.SpanID {
		t.Error("child reused the parent's span id")
	}
	if (&Span{}).Context().Valid() {
		t.Error("zero span context should be invalid")
	}
	var nilSpan *Span
	nilSpan.End() // must not panic
	if nilSpan.Context().Valid() {
		t.Error("nil span context should be zero")
	}
}

func TestSpanEmitsPairedEventsAndRecords(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	rec := NewFlightRecorder(8)
	s := StartSpan(tr, rec, SpanContext{}, "worker", "eval", "shard", "s-1")
	s.End("status", "done")

	events := decodeEvents(t, &buf)
	if len(events) != 2 {
		t.Fatalf("got %d events, want span_start + span_end", len(events))
	}
	start, end := events[0], events[1]
	if start["event"] != "span_start" || end["event"] != "span_end" {
		t.Fatalf("events: %v / %v", start["event"], end["event"])
	}
	if start["trace_id"] != end["trace_id"] || start["span_id"] != end["span_id"] {
		t.Error("span_start/span_end ids disagree")
	}
	if _, ok := end["duration_ms"].(float64); !ok {
		t.Error("span_end missing duration_ms")
	}
	spans := rec.Spans("")
	if len(spans) != 1 {
		t.Fatalf("recorder holds %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.Name != "eval" || got.Service != "worker" ||
		got.Attrs["shard"] != "s-1" || got.Attrs["status"] != "done" {
		t.Errorf("recorded span: %+v", got)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewFlightRecorder(8)
	s := StartSpan(NewTracer(&buf), rec, SpanContext{}, "worker", "eval")
	s.End()
	s.End("second", "call")
	s.End()
	events := decodeEvents(t, &buf)
	ends := 0
	for _, e := range events {
		if e["event"] == "span_end" {
			ends++
		}
	}
	if ends != 1 {
		t.Errorf("span_end emitted %d times, want 1", ends)
	}
	if got := rec.Len(); got != 1 {
		t.Errorf("recorder holds %d spans, want 1", got)
	}
}

func TestSinklessSpanBuildsNoPayload(t *testing.T) {
	// With neither a tracer nor a recorder, a start plus end allocates
	// the span and its two IDs: no attribute map, no event slice.
	allocs := testing.AllocsPerRun(200, func() {
		s := StartSpan(nil, nil, SpanContext{}, "local", "scenario",
			"hash", "h", "name", "n", "scenarios", 16, "cache_hit", true, "share", 0.25)
		s.End("trials", 60, "positions", 1)
	})
	if allocs > 3 {
		t.Errorf("sink-less start+end made %.1f allocations, want at most 3", allocs)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: "aaaa0000bbbb1111", SpanID: "cccc2222dddd3333"}
	got, ok := ParseTraceHeader(sc.HeaderValue())
	if !ok || got != sc {
		t.Errorf("round trip: got %+v ok=%v", got, ok)
	}
	for _, bad := range []string{"", "-abc", "abc-", "justone", "-"} {
		if _, ok := ParseTraceHeader(bad); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", bad)
		}
	}
}

func TestFlightRecorderRingEvictsOldest(t *testing.T) {
	rec := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		rec.Record(SpanRecord{TraceID: "t", SpanID: string(rune('a' + i)), StartUnixNS: int64(i)})
	}
	if rec.Len() != 4 {
		t.Errorf("Len %d, want 4", rec.Len())
	}
	if rec.Dropped() != 2 {
		t.Errorf("Dropped %d, want 2", rec.Dropped())
	}
	spans := rec.Spans("")
	if len(spans) != 4 || spans[0].SpanID != "c" || spans[3].SpanID != "f" {
		t.Errorf("spans not oldest-first after wrap: %+v", spans)
	}
	rec.Record(SpanRecord{TraceID: "other", SpanID: "x"})
	if got := rec.Spans("other"); len(got) != 1 || got[0].SpanID != "x" {
		t.Errorf("trace filter: %+v", got)
	}
	var nilRec *FlightRecorder
	nilRec.Record(SpanRecord{}) // no-op, must not panic
	if nilRec.Len() != 0 || nilRec.Spans("") != nil {
		t.Error("nil recorder should be empty")
	}
}

func TestTracesHandlerServesAndFilters(t *testing.T) {
	rec := NewFlightRecorder(8)
	rec.Record(SpanRecord{TraceID: "t1", SpanID: "a", Name: "eval"})
	rec.Record(SpanRecord{TraceID: "t2", SpanID: "b", Name: "eval"})
	h := TracesHandler(rec)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces", nil))
	var resp TracesResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 || len(resp.Spans) != 2 || resp.Capacity != 8 {
		t.Errorf("unfiltered response: %+v", resp)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces?trace_id=t2", nil))
	resp = TracesResponse{}
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Spans[0].SpanID != "b" {
		t.Errorf("filtered response: %+v", resp)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/traces", nil))
	if rr.Code != 405 {
		t.Errorf("POST status %d, want 405", rr.Code)
	}

	rr = httptest.NewRecorder()
	TracesHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces", nil))
	resp = TracesResponse{}
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 {
		t.Errorf("nil-recorder response: %+v", resp)
	}
}

// failWriter fails (or short-writes) every write.
type failWriter struct{ short bool }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.short {
		return len(p) - 1, nil
	}
	return 0, errors.New("sink gone")
}

func TestTracerCountsDroppedEvents(t *testing.T) {
	m := NewRegistry()
	tr := NewTracerWithMetrics(&failWriter{}, m)
	tr.emit("sweep_start")
	tr.emit("sweep_done")
	if got := tr.dropped.Value(); got != 2 {
		t.Errorf("Dropped %d, want 2", got)
	}
	var expo bytes.Buffer
	m.WritePrometheus(&expo)
	if !strings.Contains(expo.String(), "fairness_trace_dropped_total 2") {
		t.Errorf("exposition missing drop counter:\n%s", expo.String())
	}

	short := NewTracer(&failWriter{short: true})
	short.emit("x")
	if got := short.dropped.Value(); got != 1 {
		t.Errorf("short write Dropped %d, want 1", got)
	}

	var ok bytes.Buffer
	good := NewTracer(&ok)
	good.emit("x")
	if got := good.dropped.Value(); got != 0 {
		t.Errorf("healthy tracer Dropped %d, want 0", got)
	}
}

func TestBuildSpanTreeSelfTimeAndCriticalPath(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * 1e6) }
	spans := []SpanRecord{
		{TraceID: "t", SpanID: "root", Name: "job", StartUnixNS: 0, DurationMS: 100},
		// Two overlapping children: [10,40] and [30,80] — union covers 70ms.
		{TraceID: "t", SpanID: "c1", ParentID: "root", Name: "dispatch", StartUnixNS: ms(10), DurationMS: 30},
		{TraceID: "t", SpanID: "c2", ParentID: "root", Name: "dispatch", StartUnixNS: ms(30), DurationMS: 50},
		// Grandchild inside c2: [35, 75].
		{TraceID: "t", SpanID: "g1", ParentID: "c2", Name: "eval", StartUnixNS: ms(35), DurationMS: 40},
		// Duplicate of c1 (fetched from a second recorder): must collapse.
		{TraceID: "t", SpanID: "c1", ParentID: "root", Name: "dispatch", StartUnixNS: ms(10), DurationMS: 30},
	}
	tree := BuildSpanTree(spans)
	if tree.Spans != 4 || len(tree.Roots) != 1 {
		t.Fatalf("tree: %d spans, %d roots", tree.Spans, len(tree.Roots))
	}
	root := tree.Roots[0]
	if got := root.SelfMS(); got != 30 { // 100 - union(10..40, 30..80)=70
		t.Errorf("root self time %v, want 30", got)
	}

	// The breakdown must partition the root's duration exactly, even
	// though the two dispatch siblings overlap on [30,40].
	breakdown := root.StageBreakdown()
	var sum float64
	for _, v := range breakdown {
		sum += v
	}
	if sum != root.DurationMS {
		t.Errorf("stages sum to %v, want %v (breakdown %v)", sum, root.DurationMS, breakdown)
	}
	// job self [0,10]+[80,100]=30, dispatch [10,35]+[75,80]... attribution:
	// [10,30] c1, [30,35] c2 (later-started sibling wins), [35,75] g1,
	// [75,80] c2 → dispatch 30, eval 40.
	if breakdown["eval"] != 40 || breakdown["dispatch"] != 30 || breakdown["job"] != 30 {
		t.Errorf("breakdown %v, want job:30 dispatch:30 eval:40", breakdown)
	}

	// Critical path descends into the latest-ending child at each level.
	path := root.CriticalPath()
	var names []string
	for _, n := range path {
		names = append(names, n.SpanID)
	}
	if strings.Join(names, ">") != "root>c2>g1" {
		t.Errorf("critical path %v", names)
	}

	// A span whose parent was evicted surfaces as an extra root.
	orphan := BuildSpanTree([]SpanRecord{
		{TraceID: "t", SpanID: "k", ParentID: "gone", Name: "eval", DurationMS: 5},
	})
	if len(orphan.Roots) != 1 {
		t.Errorf("orphan roots: %d", len(orphan.Roots))
	}
}

func TestOpenSpansLiveFromStartToEnd(t *testing.T) {
	rec := NewFlightRecorder(8)
	root := StartSpan(nil, rec, SpanContext{}, "coordinator", "sweep", "unique", 4)
	child := StartSpan(nil, rec, root.Context(), "coordinator", "dispatch", "shard", "s-1")
	other := StartSpan(nil, rec, SpanContext{}, "worker", "eval")

	open := rec.Open("")
	if len(open) != 3 || open[0].Name != "sweep" || open[1].Name != "dispatch" {
		t.Fatalf("open spans: %+v", open)
	}
	if open[0].Attrs["unique"] != "4" || open[1].ParentID != root.Context().SpanID {
		t.Errorf("open records: %+v", open[:2])
	}
	if got := rec.Open(root.Context().TraceID); len(got) != 2 {
		t.Errorf("trace-filtered open spans: %+v", got)
	}
	if len(rec.Spans("")) != 0 {
		t.Error("completed ring holds spans that have not ended")
	}

	// Open hands out copies: neither the caller's edits nor End's
	// attributes reach another reader's view.
	open[1].Attrs["shard"] = "mutated"
	held := rec.Open(root.Context().TraceID)[1]
	child.End("status", "acked")
	if held.Attrs["shard"] != "s-1" || held.Attrs["status"] != "" {
		t.Errorf("open record changed under its reader: %+v", held.Attrs)
	}
	done := rec.Spans("")
	if len(done) != 1 || done[0].Attrs["shard"] != "s-1" || done[0].Attrs["status"] != "acked" {
		t.Errorf("completed record: %+v", done)
	}
	if got := rec.Open(""); len(got) != 2 {
		t.Errorf("ended span still open: %+v", got)
	}

	// The handler serves both lists; spans stays completed-only.
	rr := httptest.NewRecorder()
	TracesHandler(rec).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces", nil))
	var resp TracesResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || len(resp.Spans) != 1 || len(resp.Open) != 2 {
		t.Errorf("traces response: %+v", resp)
	}

	root.End()
	other.End()
	root.End() // idempotent: must not record twice
	if n := len(rec.Open("")); n != 0 {
		t.Errorf("%d spans still open after every End", n)
	}
	if n := rec.Len(); n != 3 {
		t.Errorf("recorder holds %d completed spans, want 3", n)
	}
	var nilRec *FlightRecorder
	if nilRec.Open("") != nil {
		t.Error("nil recorder reports open spans")
	}
}

func TestOpenSpansConcurrentStartEndAndReads(t *testing.T) {
	// Run under -race: spans start and end on many goroutines while
	// others read the open set directly and through GET /v1/traces.
	rec := NewFlightRecorder(64)
	srv := httptest.NewServer(TracesHandler(rec))
	defer srv.Close()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if i%2 == 0 {
					for _, r := range rec.Open("") {
						_ = r.Attrs["k"]
					}
					continue
				}
				resp, err := http.Get(srv.URL)
				if err != nil {
					t.Error(err)
					return
				}
				var body TracesResponse
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				s := StartSpan(nil, rec, SpanContext{}, "worker", "eval", "k", g)
				c := StartSpan(nil, rec, s.Context(), "worker", "stream")
				c.End("streamed", i)
				s.End("status", "done", "k", i)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if n := len(rec.Open("")); n != 0 {
		t.Errorf("%d spans left open", n)
	}
}
