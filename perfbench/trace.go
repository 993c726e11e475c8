package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// kind names the layer boundary a span was recorded at.
type kind uint8

const (
	kRequest kind = iota // one benchmark request
	kSweep               // one sweep call: Engine.Sweep, or a worker's shard run
	kEval                // sweep.Evaluator.Evaluate
	kGet                 // sweep.CacheStore.Get
	kPut                 // sweep.CacheStore.Add
	kHTTP                // coordinator→worker round trip, to the end of the body
	kRunner              // jobs.SweepRunner: one job's cluster run
	kGrant               // cluster.DispatchGate.Acquire
	kSubmit              // jobs client: POST /v1/jobs
	kResults             // jobs client: one GET of a results page
)

var kindNames = [...]string{"request", "sweep", "evaluate", "cache.get", "cache.put",
	"http", "runner", "grant", "submit", "results"}

func (k kind) String() string { return kindNames[k] }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Attribute fields are meaningful only for some kinds.
type span struct {
	id, parent uint64
	kind       kind
	track      string // which component recorded it: local, coord, worker0, ...
	request    string // the benchmark request (or job) the call served
	start, end int64

	proto  string // kEval: protocol
	trials int64  // kEval: trials run
	steps  int64  // kEval: trials run × blocks
	n      int64  // kSweep, kRequest: scenarios; kHTTP: bytes on the wire
	hit    bool   // kGet: served from the cache
	shard  bool   // kHTTP: a POST /v1/shard claim
	failed bool   // kHTTP: transport error, non-200 status or torn body
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory. The traced run's entry points (a local
// sweep, a worker's shard run, a coordinator's job run) check whether it
// is on at each call: while it is off they run the program's own path,
// while it is on a path through decorators that record spans, so one
// set-up can alternate traced and untraced slices of the same run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// now is the time since the tracer's epoch; 0 without a tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// open starts a span that may parent others: it gets its id now and is
// recorded by close.
func (t *tracer) open(k kind, track, request string, n int) span {
	return span{id: t.ids.Add(1), kind: k, track: track, request: request, start: t.now(), n: int64(n)}
}

// close ends s and records it.
func (t *tracer) close(s span) {
	s.end = t.now()
	t.add(s)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeNDJSON writes every recorded span as one JSON line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		rec := map[string]any{"id": s.id, "parent": s.parent, "name": s.kind.String(),
			"track": s.track, "request": s.request, "start_ns": s.start, "end_ns": s.end}
		switch s.kind {
		case kEval:
			rec["protocol"], rec["trials"], rec["steps"] = s.proto, s.trials, s.steps
		case kSweep, kRequest:
			rec["scenarios"] = s.n
		case kGet:
			rec["hit"] = s.hit
		case kHTTP:
			rec["bytes"], rec["shard"], rec["failed"] = s.n, s.shard, s.failed
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ref is what a traced call hands down through its context: the span
// to parent under, the request it serves, and the trial parallelism the
// sweep runner would have given a bare Monte-Carlo evaluator.
type ref struct {
	id           uint64
	request      string
	trialWorkers int
}

type refKey struct{}

func withRef(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

func refFrom(ctx context.Context) ref {
	r, _ := ctx.Value(refKey{}).(ref)
	return r
}

// runnerTrialWorkers is the per-scenario trial parallelism
// sweep.RunContext gives a *sweep.MonteCarloEvaluator with no explicit
// TrialWorkers: 1 while scenario workers fill the machine, GOMAXPROCS
// when one scenario runs at a time.
func runnerTrialWorkers(workers int, specs []scenario.Spec) int {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = procs
	}
	uniq := make(map[string]bool, len(specs))
	for _, s := range specs {
		uniq[s.MustHash()] = true
	}
	if min(workers, len(uniq)) > 1 {
		return 1
	}
	return procs
}

// tracedEvaluator times sweep.Evaluator.Evaluate. The runner sets
// TrialWorkers only on a bare *sweep.MonteCarloEvaluator, so the
// wrapper applies the value the runner would have picked, which the
// enclosing sweep call hands down in its context.
type tracedEvaluator struct {
	t                *tracer
	track            string
	serial, parallel *sweep.MonteCarloEvaluator
}

func newTracedEvaluator(t *tracer, track string) *tracedEvaluator {
	return &tracedEvaluator{t: t, track: track,
		serial:   &sweep.MonteCarloEvaluator{TrialWorkers: 1},
		parallel: &sweep.MonteCarloEvaluator{TrialWorkers: runtime.GOMAXPROCS(0)},
	}
}

// Name forwards the inner name, which is also the cache namespace.
func (e *tracedEvaluator) Name() string { return e.serial.Name() }

// Capabilities forwards the inner evaluator's declared coverage.
func (e *tracedEvaluator) Capabilities() sweep.Capabilities { return e.serial.Capabilities() }

func (e *tracedEvaluator) Evaluate(ctx context.Context, spec scenario.Spec) (sweep.Evaluation, error) {
	r := refFrom(ctx)
	inner := e.parallel
	if r.trialWorkers == 1 {
		inner = e.serial
	}
	start := e.t.now()
	ev, err := inner.Evaluate(ctx, spec)
	e.t.add(span{id: e.t.ids.Add(1), parent: r.id, kind: kEval, track: e.track, request: r.request,
		start: start, end: e.t.now(),
		proto: spec.Protocol, trials: ev.TrialsRun, steps: ev.TrialsRun * int64(spec.Blocks)})
	return ev, err
}

// tracedCache times sweep.CacheStore calls. They carry no context, so
// each wrapper is made for one sweep call and files its spans under
// that call's span.
type tracedCache struct {
	t      *tracer
	parent span
	inner  sweep.CacheStore
}

func (c *tracedCache) Get(key string) (sweep.Outcome, bool) {
	start := c.t.now()
	out, ok := c.inner.Get(key)
	c.t.add(span{id: c.t.ids.Add(1), parent: c.parent.id, kind: kGet, track: c.parent.track,
		request: c.parent.request, start: start, end: c.t.now(), hit: ok})
	return out, ok
}

func (c *tracedCache) Add(key string, out sweep.Outcome) {
	start := c.t.now()
	c.inner.Add(key, out)
	c.t.add(span{id: c.t.ids.Add(1), parent: c.parent.id, kind: kPut, track: c.parent.track,
		request: c.parent.request, start: start, end: c.t.now()})
}

func (c *tracedCache) Len() int { return c.inner.Len() }

// tracedRunFunc is a worker's shard runner over cache: the worker-side
// sweep call. While tracing is off it is cluster.LocalRunner itself;
// while it is on, each shard runs through a traced evaluator and a
// cache wrapper bound to the shard's span. The shard's job arrives as
// trace baggage.
func tracedRunFunc(t *tracer, track string, cache sweep.CacheStore) cluster.RunFunc {
	plain := cluster.LocalRunner(sweep.Options{Cache: cache})
	ev := newTracedEvaluator(t, track)
	return func(ctx context.Context, specs []scenario.Spec, onOutcome func(sweep.Outcome)) (sweep.Stats, error) {
		if !t.enabled() {
			return plain(ctx, specs, onOutcome)
		}
		s := t.open(kSweep, track, telemetry.BaggageFrom(ctx)["job"], len(specs))
		r := ref{id: s.id, request: s.request, trialWorkers: runnerTrialWorkers(0, specs)}
		run := cluster.LocalRunner(sweep.Options{Cache: &tracedCache{t: t, parent: s, inner: cache}, Evaluator: ev})
		stats, err := run(withRef(ctx, r), specs, onOutcome)
		t.close(s)
		return stats, err
	}
}

// tracedTransport times coordinator→worker round trips from the request
// until its response body ends, counting bytes as the body streams
// through rather than buffering it.
type tracedTransport struct {
	t     *tracer
	inner http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := refFrom(req.Context())
	s := span{id: tt.t.ids.Add(1), parent: r.id, kind: kHTTP, track: "coord", request: r.request,
		start: tt.t.now(), shard: req.URL.Path == "/v1/shard"}
	if req.ContentLength > 0 {
		s.n = req.ContentLength
	}
	resp, err := tt.inner.RoundTrip(req)
	if err != nil {
		s.failed, s.end = true, tt.t.now()
		tt.t.add(s)
		return nil, err
	}
	s.failed = resp.StatusCode != http.StatusOK
	resp.Body = &countingBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// countingBody counts a response body's bytes and ends its span at EOF,
// at a read error, or at Close, whichever comes first.
type countingBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.n += int64(n)
	if err != nil {
		b.end(err != io.EOF)
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.end(false)
	return b.ReadCloser.Close()
}

func (b *countingBody) end(failed bool) {
	b.once.Do(func() {
		b.s.failed = b.s.failed || failed
		b.s.end = b.t.now()
		b.t.add(b.s)
	})
}

// tracedGate times cluster.DispatchGate.Acquire.
type tracedGate struct {
	t     *tracer
	inner cluster.DispatchGate
}

func (g *tracedGate) Acquire(ctx context.Context, want int) (int, func(), error) {
	r := refFrom(ctx)
	start := g.t.now()
	granted, release, err := g.inner.Acquire(ctx, want)
	g.t.add(span{id: g.t.ids.Add(1), parent: r.id, kind: kGrant, track: "coord", request: r.request,
		start: start, end: g.t.now()})
	return granted, release, err
}

// tracedRunner is the coordinator's job runner: jobs.ClusterRunner over
// base, whose HTTPClient is nil. While tracing is off it is that runner
// itself, and cluster.Run dials each job's workers through a private
// connection pool. While tracing is on, the job gets such a pool here,
// wrapped to time its round trips, and the gate and tenant cache it is
// handed are wrapped too.
func tracedRunner(t *tracer, base cluster.Options) jobs.SweepRunner {
	plain := jobs.ClusterRunner(base)
	return func(ctx context.Context, specs []scenario.Spec, gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
		if !t.enabled() {
			return plain(ctx, specs, gate, cache)
		}
		s := t.open(kRunner, "coord", telemetry.BaggageFrom(ctx)["job"], len(specs))
		// As cluster.Run does for a nil HTTPClient: a pool per run,
		// drained when the run ends.
		pool := http.DefaultTransport.(*http.Transport).Clone()
		o := base
		o.HTTPClient = &http.Client{Transport: &tracedTransport{t: t, inner: pool}}
		if cache != nil {
			cache = &tracedCache{t: t, parent: s, inner: cache}
		}
		rep, err := jobs.ClusterRunner(o)(withRef(ctx, ref{id: s.id, request: s.request}), specs,
			&tracedGate{t: t, inner: gate}, cache)
		pool.CloseIdleConnections()
		t.close(s)
		return rep, err
	}
}
