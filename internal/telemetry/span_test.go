package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	root := StartSpan(nil, SpanContext{}, "jobs", "job")
	rc := root.Context()
	if !rc.Valid() {
		t.Fatalf("root context invalid: %+v", rc)
	}
	child := StartSpan(nil, rc, "coordinator", "sweep")
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
	s := StartSpan(tr, SpanContext{}, "worker", "eval", "shard", "s-1")
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
	spans := tr.Snapshot("").Spans
	if len(spans) != 1 {
		t.Fatalf("tracer holds %d spans, want 1", len(spans))
	}
	got := spans[0]
	if got.Name != "eval" || got.Service != "worker" ||
		got.Attrs["shard"] != "s-1" || got.Attrs["status"] != "done" {
		t.Errorf("recorded span: %+v", got)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	s := StartSpan(tr, SpanContext{}, "worker", "eval")
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
	if got := tr.Snapshot("").Count; got != 1 {
		t.Errorf("tracer holds %d spans, want 1", got)
	}
}

func TestSinklessSpanBuildsNoPayload(t *testing.T) {
	// With no tracer, a start plus end allocates the span and its two
	// IDs: no attribute map, no event slice.
	allocs := testing.AllocsPerRun(200, func() {
		s := StartSpan(nil, SpanContext{}, "local", "scenario",
			"hash", "h", "name", "n", "scenarios", 16, "cache_hit", true, "share", 0.25)
		s.End("trials", 60, "positions", 1)
	})
	if allocs > 3 {
		t.Errorf("sink-less start+end made %.1f allocations, want at most 3", allocs)
	}
}

func TestWriterlessTracerBuildsNoEvent(t *testing.T) {
	// A tracer without a writer keeps the span's record and builds no
	// NDJSON event: a start plus end costs what the record needs, far
	// less than a tracer that writes both lines.
	span := func(tr *Tracer) func() {
		return func() {
			s := StartSpan(tr, SpanContext{}, "local", "scenario",
				"hash", "h", "name", "n", "scenarios", 16, "cache_hit", true, "share", 0.25)
			s.End("trials", 60, "positions", 1)
		}
	}
	ringOnly := testing.AllocsPerRun(200, span(NewTracer(nil)))
	written := testing.AllocsPerRun(200, span(NewTracer(io.Discard)))
	if ringOnly*2 > written {
		t.Errorf("writer-less start+end made %.1f allocations against %.1f with a writer; want under half",
			ringOnly, written)
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

// ringTracer returns a writer-less tracer whose ring holds capacity
// spans instead of 4096.
func ringTracer(capacity int) *Tracer {
	tr := NewTracer(nil)
	tr.ring = make([]SpanRecord, 0, capacity)
	return tr
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := ringTracer(4)
	root := StartSpan(tr, SpanContext{}, "test", "root")
	var ids []string
	for i := 0; i < 6; i++ {
		s := StartSpan(tr, root.Context(), "test", "child")
		ids = append(ids, s.Context().SpanID)
		s.End()
	}
	snap := tr.Snapshot("")
	if snap.Count != 4 || snap.Capacity != 4 {
		t.Errorf("Count %d Capacity %d, want 4 and 4", snap.Count, snap.Capacity)
	}
	if snap.Dropped != 2 {
		t.Errorf("Dropped %d, want 2", snap.Dropped)
	}
	if len(snap.Spans) != 4 || snap.Spans[0].SpanID != ids[2] || snap.Spans[3].SpanID != ids[5] {
		t.Errorf("spans not oldest-first after wrap: %+v", snap.Spans)
	}
	if len(snap.Open) != 1 || snap.Open[0].SpanID != root.Context().SpanID {
		t.Errorf("open spans: %+v", snap.Open)
	}
	other := StartSpan(tr, SpanContext{}, "test", "other")
	other.End()
	if got := tr.Snapshot(other.Context().TraceID); len(got.Spans) != 1 || got.Spans[0].SpanID != other.Context().SpanID ||
		len(got.Open) != 0 {
		t.Errorf("trace filter: %+v", got)
	}
	var nilTr *Tracer
	StartSpan(nilTr, SpanContext{}, "test", "root").End() // no-op, must not panic
	if got := nilTr.Snapshot(""); got.Spans == nil || got.Open == nil || got.Count != 0 {
		t.Errorf("nil tracer snapshot: %+v", got)
	}
}

func TestTracesHandlerServesAndFilters(t *testing.T) {
	tr := ringTracer(8)
	StartSpan(tr, SpanContext{}, "worker", "eval").End()
	b := StartSpan(tr, SpanContext{}, "worker", "eval")
	b.End()
	h := TracesHandler(tr)

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
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces?trace_id="+b.Context().TraceID, nil))
	resp = TracesResponse{}
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || resp.Spans[0].SpanID != b.Context().SpanID {
		t.Errorf("filtered response: %+v", resp)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/traces", nil))
	if rr.Code != 405 {
		t.Errorf("POST status %d, want 405", rr.Code)
	}

	// A nil tracer serves empty arrays, not null: `jq '.spans[]'` must
	// work against any daemon.
	for _, h := range []http.Handler{TracesHandler(nil), TracesHandler(ringTracer(8))} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces", nil))
		var raw map[string]json.RawMessage
		if err := json.NewDecoder(rr.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		if string(raw["spans"]) != "[]" || string(raw["open"]) != "[]" || string(raw["count"]) != "0" {
			t.Errorf("empty response: spans %s, open %s, count %s", raw["spans"], raw["open"], raw["count"])
		}
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
	tr := NewTracer(nil)
	root := StartSpan(tr, SpanContext{}, "coordinator", "sweep", "unique", 4)
	child := StartSpan(tr, root.Context(), "coordinator", "dispatch", "shard", "s-1")
	other := StartSpan(tr, SpanContext{}, "worker", "eval")

	open := tr.Snapshot("").Open
	if len(open) != 3 || open[0].Name != "sweep" || open[1].Name != "dispatch" {
		t.Fatalf("open spans: %+v", open)
	}
	if open[0].Attrs["unique"] != "4" || open[1].ParentID != root.Context().SpanID {
		t.Errorf("open records: %+v", open[:2])
	}
	if got := tr.Snapshot(root.Context().TraceID).Open; len(got) != 2 {
		t.Errorf("trace-filtered open spans: %+v", got)
	}
	if len(tr.Snapshot("").Spans) != 0 {
		t.Error("completed ring holds spans that have not ended")
	}

	// Open hands out copies: neither the caller's edits nor End's
	// attributes reach another reader's view.
	open[1].Attrs["shard"] = "mutated"
	held := tr.Snapshot(root.Context().TraceID).Open[1]
	child.End("status", "merged")
	if held.Attrs["shard"] != "s-1" || held.Attrs["status"] != "" {
		t.Errorf("open record changed under its reader: %+v", held.Attrs)
	}
	done := tr.Snapshot("").Spans
	if len(done) != 1 || done[0].Attrs["shard"] != "s-1" || done[0].Attrs["status"] != "merged" {
		t.Errorf("completed record: %+v", done)
	}
	if got := tr.Snapshot("").Open; len(got) != 2 {
		t.Errorf("ended span still open: %+v", got)
	}

	// The handler serves both lists; spans stays completed-only.
	rr := httptest.NewRecorder()
	TracesHandler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/v1/traces", nil))
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
	if n := len(tr.Snapshot("").Open); n != 0 {
		t.Errorf("%d spans still open after every End", n)
	}
	if n := tr.Snapshot("").Count; n != 3 {
		t.Errorf("tracer holds %d completed spans, want 3", n)
	}
	var nilTr *Tracer
	if len(nilTr.Snapshot("").Open) != 0 {
		t.Error("nil tracer reports open spans")
	}
}

func TestOpenSpansConcurrentStartEndAndReads(t *testing.T) {
	// Run under -race: spans start and end on many goroutines while
	// others read the open set directly and through GET /v1/traces.
	tr := ringTracer(64)
	srv := httptest.NewServer(TracesHandler(tr))
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
					for _, r := range tr.Snapshot("").Open {
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
				s := StartSpan(tr, SpanContext{}, "worker", "eval", "k", g)
				c := StartSpan(tr, s.Context(), "worker", "stream")
				c.End("streamed", i)
				s.End("status", "done", "k", i)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if n := len(tr.Snapshot("").Open); n != 0 {
		t.Errorf("%d spans left open", n)
	}
}

func TestSnapshotNeverLosesAnEndingSpan(t *testing.T) {
	// One goroutine starts and ends spans one after another while reads
	// of a full ring run. The span started last before a read is open or
	// completed, so every read must list it, and an open span must be the
	// successor of the newest completed one. Reading the two lists under
	// separate locks lost the spans that ended between them.
	tr := ringTracer(1024)
	for i := 0; i < 1024; i++ {
		StartSpan(tr, SpanContext{}, "worker", "eval", "seq", -1).End()
	}
	var started atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := StartSpan(tr, SpanContext{}, "worker", "eval", "seq", i)
			started.Store(i + 1)
			s.End()
		}
	}()
	seq := func(r SpanRecord) int64 {
		n, _ := strconv.ParseInt(r.Attrs["seq"], 10, 64)
		return n
	}
	lost := 0
	for read := 0; read < 1000; read++ {
		last := started.Load() - 1
		snap := tr.Snapshot("")
		newest := seq(snap.Spans[len(snap.Spans)-1])
		switch {
		case len(snap.Open) > 1:
			t.Fatalf("%d spans open, the writer holds at most one", len(snap.Open))
		case len(snap.Open) == 1 && seq(snap.Open[0]) != newest+1:
			lost++ // spans between the newest completed and the open one
		case len(snap.Open) == 0 && newest < last:
			lost++ // span last had started, yet is neither open nor completed
		}
	}
	close(stop)
	<-done
	if lost > 0 {
		t.Errorf("%d of 1000 reads of a full ring lost a span that ended during the read", lost)
	}
}
