// Manager is the multi-tenant job service: named sweep submissions from
// many tenants, multiplexed onto one execution substrate (the shared
// cluster, or a local engine) under the fair-share Scheduler. It owns
// the job lifecycle (queued → running → done/failed/cancelled, with
// cancellation preserving partial reports), per-tenant admission quotas,
// per-tenant cache namespaces, and retention of finished results with
// paginated retrieval.
package jobs

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Job service errors, mapped onto HTTP statuses by the Server.
var (
	// ErrQuota reports a submission rejected by the tenant's
	// max-queued-jobs quota (HTTP 429).
	ErrQuota = errors.New("jobs: tenant quota exceeded")
	// ErrUnknownJob reports a job id the store does not hold — never
	// assigned, or already evicted by retention (HTTP 404).
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrNotFinished reports a results request for a job still queued or
	// running (HTTP 409).
	ErrNotFinished = errors.New("jobs: job not finished")
	// ErrClosed reports a submission to a manager that has been shut
	// down.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrPageToken reports an unparseable pagination token (HTTP 400).
	ErrPageToken = errors.New("jobs: invalid page token")
)

// JobState is a job's lifecycle position.
type JobState string

// Lifecycle: Queued → Running → one of the three terminal states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s names a real state ("" means "any" in list
// filters).
func (s JobState) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// SubmitRequest is one named sweep submission.
type SubmitRequest struct {
	// Name labels the job for humans; it need not be unique.
	Name string `json:"name,omitempty"`
	// Tenant is the submitting principal ("" reads as "default"), at
	// most 64 bytes. Tenants are the unit of fair sharing, quotas, cache
	// namespacing and retention.
	Tenant string `json:"tenant,omitempty"`
	// Priority biases the tenant's effective weight for this job: each
	// step doubles (positive) or halves (negative) it, clamped to ±3.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS, when > 0, is a soft deadline this many milliseconds
	// from submission; urgency boosts the job's effective weight as the
	// deadline approaches (capped at 8×). It never preempts running
	// work and never cancels the job.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Specs is the expanded scenario list to sweep.
	Specs []scenario.Spec `json:"-"`
}

// JobInfo is one job's externally visible state snapshot.
type JobInfo struct {
	ID          string      `json:"id"`
	Name        string      `json:"name,omitempty"`
	Tenant      string      `json:"tenant"`
	State       JobState    `json:"state"`
	Priority    int         `json:"priority,omitempty"`
	Scenarios   int         `json:"scenarios"`
	SubmittedMS int64       `json:"submitted_ms"`
	StartedMS   int64       `json:"started_ms,omitempty"`
	FinishedMS  int64       `json:"finished_ms,omitempty"`
	DeadlineMS  int64       `json:"deadline_ms,omitempty"` // absolute unix ms
	Error       string      `json:"error,omitempty"`
	Partial     bool        `json:"partial,omitempty"`
	Stats       sweep.Stats `json:"stats,omitzero"`
	// TraceID names the job's distributed trace: the root span minted at
	// submission, under which every scheduler, coordinator and worker
	// span of the job's lifetime hangs. Look it up with GET /v1/traces or
	// `fairctl trace <job>`.
	TraceID string `json:"trace_id,omitempty"`
}

// job is the manager's internal record.
type job struct {
	info   JobInfo
	specs  []scenario.Spec
	report *sweep.Report
	cancel context.CancelFunc
	// span is the job's root span (ended at the terminal state); queued
	// is its first child, covering submission → start. Both End
	// idempotently, so the cancel-while-queued path cannot double-close.
	span   *telemetry.Span
	queued *telemetry.Span
}

// Config tunes a Manager. The zero value is usable with a Runner set.
type Config struct {
	// Runner executes one job's sweep under a dispatch gate. Required.
	// Use ClusterRunner for the shared worker pool or LocalRunner for
	// in-process execution.
	Runner SweepRunner
	// Capacity bounds concurrently outstanding dispatch grants; see
	// NewScheduler. Nil reads as 1 — strict interleaving, the right
	// default for LocalRunner.
	Capacity func() int
	// MaxQueuedPerTenant caps a tenant's non-terminal jobs (queued +
	// running); submissions beyond it fail with ErrQuota (0 = 16).
	MaxQueuedPerTenant int
	// MaxInflightPerTenant caps a tenant's in-flight scenarios across
	// all its jobs (0 = unlimited).
	MaxInflightPerTenant int
	// MaxConcurrentJobs caps jobs in the running state (0 = 64). The
	// fair-share gate, not this backstop, is what interleaves work.
	MaxConcurrentJobs int
	// RetainPerTenant caps finished jobs kept for result retrieval per
	// tenant; the oldest-finished are evicted first (0 = 32).
	RetainPerTenant int
	// Weights assigns per-tenant share weights (unlisted tenants get 1).
	Weights map[string]float64
	// Cache, when non-nil, is the base result cache; each tenant reads
	// and writes through its own namespace of it.
	Cache sweep.CacheStore
	// Metrics receives the fairness_jobs_* series, and Tracer the job
	// service's spans (job, queued, gate_wait) as NDJSON. Both may be
	// nil.
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
	// Recorder, when non-nil, retains the job service's spans (job root,
	// queued, gate_wait) for GET /v1/traces. Share one recorder with the
	// cluster coordinator so a job's whole trace is served from one ring.
	Recorder *telemetry.FlightRecorder
}

// Manager is the job service. Construct with NewManager.
type Manager struct {
	cfg   Config
	sched *Scheduler
	slots chan struct{}

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, the List spine
	seq    int
	closed bool

	wg sync.WaitGroup

	queuedGauge  *telemetry.Gauge
	runningGauge *telemetry.Gauge
}

// NewManager builds a job service over cfg.Runner.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("jobs: Config.Runner is required")
	}
	m := &Manager{
		cfg:          cfg,
		sched:        NewScheduler(cfg.Capacity, cfg.Metrics, cfg.Tracer, cfg.Recorder),
		slots:        make(chan struct{}, valueOr(cfg.MaxConcurrentJobs, 64)),
		jobs:         make(map[string]*job),
		queuedGauge:  cfg.Metrics.Gauge("fairness_jobs_queued"),
		runningGauge: cfg.Metrics.Gauge("fairness_jobs_running"),
	}
	for tenant, w := range cfg.Weights {
		m.sched.SetTenant(tenant, w, cfg.MaxInflightPerTenant)
	}
	return m, nil
}

func valueOr(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// maxTenantBytes bounds a tenant name. TenantCache stores a tenant's
// outcomes under the directory "t-" + cachestore.Segment(tenant), which
// spends up to three bytes per name byte: 64 bytes encode to at most 195,
// inside the 255-byte file-name limit of common file systems.
const maxTenantBytes = 64

// Submit admits one job, returning its assigned snapshot. The job runs
// asynchronously; watch it with Get or wait on results with Results.
func (m *Manager) Submit(req SubmitRequest) (JobInfo, error) {
	if len(req.Specs) == 0 {
		return JobInfo{}, fmt.Errorf("jobs: empty scenario list")
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if len(tenant) > maxTenantBytes {
		return JobInfo{}, fmt.Errorf("jobs: tenant name is %d bytes, limit %d", len(tenant), maxTenantBytes)
	}
	for i, s := range req.Specs {
		if err := s.Validate(); err != nil {
			return JobInfo{}, fmt.Errorf("jobs: scenario %d (%s): %w", i, s.Name, err)
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	open := 0
	for _, j := range m.jobs {
		if j.info.Tenant == tenant && !j.info.State.Terminal() {
			open++
		}
	}
	if open >= valueOr(m.cfg.MaxQueuedPerTenant, 16) {
		m.mu.Unlock()
		m.cfg.Metrics.Counter("fairness_jobs_quota_rejected_total", "tenant", tenant).Inc()
		return JobInfo{}, fmt.Errorf("%w: tenant %q has %d open jobs", ErrQuota, tenant, open)
	}

	// First use of a tenant: register it with the scheduler so the
	// default weight and the global in-flight quota apply.
	if _, ok := m.cfg.Weights[tenant]; !ok {
		m.sched.SetTenant(tenant, 1, m.cfg.MaxInflightPerTenant)
	}

	m.seq++
	now := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		info: JobInfo{
			ID:          fmt.Sprintf("j-%06d", m.seq),
			Name:        req.Name,
			Tenant:      tenant,
			State:       StateQueued,
			Priority:    req.Priority,
			Scenarios:   len(req.Specs),
			SubmittedMS: now.UnixMilli(),
		},
		specs:  req.Specs,
		cancel: cancel,
	}
	var deadline time.Time
	if req.DeadlineMS > 0 {
		deadline = now.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
		j.info.DeadlineMS = deadline.UnixMilli()
	}
	// Root the job's trace: one trace_id for the job's whole lifetime,
	// with a queued child span covering submission → start.
	j.span = telemetry.StartSpan(m.cfg.Tracer, m.cfg.Recorder, telemetry.SpanContext{},
		"jobs", "job", "job", j.info.ID, "tenant", tenant,
		"name", req.Name, "scenarios", len(req.Specs), "priority", req.Priority)
	j.queued = telemetry.StartSpan(m.cfg.Tracer, m.cfg.Recorder, j.span.Context(),
		"jobs", "queued", "job", j.info.ID)
	j.info.TraceID = j.span.Context().TraceID
	m.jobs[j.info.ID] = j
	m.order = append(m.order, j.info.ID)
	m.queuedGauge.Add(1)
	info := j.info
	m.wg.Add(1)
	m.mu.Unlock()

	m.cfg.Metrics.Counter("fairness_jobs_submitted_total", "tenant", tenant).Inc()

	go m.runJob(ctx, j, deadline)
	return info, nil
}

// runJob drives one job through its lifecycle.
func (m *Manager) runJob(ctx context.Context, j *job, deadline time.Time) {
	defer m.wg.Done()

	// Wait for a job slot; cancellation while queued finishes the job
	// without ever running it.
	select {
	case m.slots <- struct{}{}:
	case <-ctx.Done():
		m.finishJob(j, &sweep.Report{Partial: true}, ctx.Err())
		return
	}
	defer func() { <-m.slots }()

	m.mu.Lock()
	j.info.State = StateRunning
	j.info.StartedMS = time.Now().UnixMilli()
	info := j.info
	m.queuedGauge.Add(-1)
	m.runningGauge.Add(1)
	m.mu.Unlock()
	j.queued.End("state", "running")

	gate := m.sched.Gate(info.Tenant, info.ID, info.Priority, deadline)
	var cache sweep.CacheStore
	if m.cfg.Cache != nil {
		cache = TenantCache(info.Tenant, m.cfg.Cache)
	}
	// The runner's spans (sweep, gate_wait, dispatch — and, across the
	// wire, the workers' eval/stream) parent under the job's root span;
	// the baggage carries the tenant/job labels to every hop.
	ctx = telemetry.ContextWithSpan(ctx, j.span.Context())
	ctx = telemetry.ContextWithBaggage(ctx, map[string]string{
		"tenant": info.Tenant, "job": info.ID,
	})
	rep, err := m.cfg.Runner(ctx, j.specs, gate, cache)
	m.finishJob(j, rep, err)
}

// finishJob records a job's terminal state and applies retention. A
// partial report keeps only the positions that were filled, in input
// order: each outcome carries its spec, so the placeholders add nothing.
func (m *Manager) finishJob(j *job, rep *sweep.Report, err error) {
	if rep != nil && rep.Partial {
		filled := rep.Outcomes[:0]
		for _, out := range rep.Outcomes {
			if out.Hash != "" {
				filled = append(filled, out)
			}
		}
		rep.Outcomes = filled
	}
	m.mu.Lock()
	prev := j.info.State
	switch {
	case err == nil:
		j.info.State = StateDone
	case errors.Is(err, context.Canceled):
		j.info.State = StateCancelled
	default:
		j.info.State = StateFailed
		j.info.Error = err.Error()
	}
	j.info.FinishedMS = time.Now().UnixMilli()
	if rep != nil {
		// Cancellation and some failures still carry a partial report —
		// retention serves whatever completed before the cut.
		j.report = rep
		j.info.Partial = rep.Partial
		j.info.Stats = rep.Stats
	}
	j.specs = nil // the spec list is dead weight once the run is over
	switch prev {
	case StateQueued:
		m.queuedGauge.Add(-1)
	case StateRunning:
		m.runningGauge.Add(-1)
	}
	info := j.info
	m.pruneLocked(j.info.Tenant)
	m.mu.Unlock()

	// Close the trace: the queued child first (a no-op unless the job was
	// cancelled while still queued — End is idempotent), then the root.
	j.queued.End("state", string(info.State))
	end := []any{"state", string(info.State), "partial", info.Partial}
	if info.Error != "" {
		end = append(end, "error", info.Error)
	}
	j.span.End(end...)

	m.cfg.Metrics.Counter("fairness_jobs_finished_total", "state", string(info.State)).Inc()
}

// pruneLocked evicts the tenant's oldest finished jobs beyond the
// retention cap.
func (m *Manager) pruneLocked(tenant string) {
	keep := valueOr(m.cfg.RetainPerTenant, 32)
	var finished []*job
	for _, id := range m.order {
		j := m.jobs[id]
		if j.info.Tenant == tenant && j.info.State.Terminal() {
			finished = append(finished, j)
		}
	}
	if len(finished) <= keep {
		return
	}
	sort.Slice(finished, func(a, b int) bool {
		return finished[a].info.FinishedMS < finished[b].info.FinishedMS
	})
	evict := make(map[string]bool, len(finished)-keep)
	for _, j := range finished[:len(finished)-keep] {
		evict[j.info.ID] = true
		delete(m.jobs, j.info.ID)
		m.cfg.Metrics.Counter("fairness_jobs_evicted_total", "tenant", tenant).Inc()
	}
	kept := m.order[:0]
	for _, id := range m.order {
		if !evict[id] {
			kept = append(kept, id)
		}
	}
	m.order = kept
}

// Get returns one job's snapshot.
func (m *Manager) Get(id string) (JobInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobInfo{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j.info, nil
}

// List returns job snapshots in submission order, optionally filtered
// by tenant and/or state ("" matches all).
func (m *Manager) List(tenant string, state JobState) ([]JobInfo, error) {
	if state != "" && !state.valid() {
		return nil, fmt.Errorf("jobs: unknown state %q", state)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobInfo, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		if tenant != "" && j.info.Tenant != tenant {
			continue
		}
		if state != "" && j.info.State != state {
			continue
		}
		out = append(out, j.info)
	}
	return out, nil
}

// Cancel requests cancellation of a job. Queued jobs finish cancelled
// without running; running jobs stop at the next dispatch boundary and
// keep the partial report computed so far. Cancelling a terminal job is
// a no-op.
func (m *Manager) Cancel(id string) (JobInfo, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobInfo{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	info := j.info
	cancel := j.cancel
	m.mu.Unlock()
	if !info.State.Terminal() {
		cancel()
	}
	return info, nil
}

// ResultsPage is one page of a finished job's merged outcomes.
type ResultsPage struct {
	Job      JobInfo         `json:"job"`
	Outcomes []sweep.Outcome `json:"outcomes"`
	// NextPageToken resumes retrieval after this page; empty on the
	// last page. Tokens are opaque to callers.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// defaultPageSize bounds a Results page when the caller does not.
const defaultPageSize = 256

// Results returns one page of a finished job's outcomes. pageToken ""
// starts from the beginning; pageSize <= 0 reads as 256. Jobs still
// queued or running answer ErrNotFinished — cancel first to read a
// partial report.
func (m *Manager) Results(id, pageToken string, pageSize int) (ResultsPage, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ResultsPage{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if state := j.info.State; !state.Terminal() {
		m.mu.Unlock()
		return ResultsPage{}, fmt.Errorf("%w: %s is %s", ErrNotFinished, id, state)
	}
	info := j.info
	var outcomes []sweep.Outcome
	if j.report != nil {
		outcomes = j.report.Outcomes
	}
	m.mu.Unlock()

	offset, err := decodePageToken(pageToken)
	if err != nil {
		return ResultsPage{}, err
	}
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	page := ResultsPage{Job: info}
	if offset >= len(outcomes) {
		return page, nil
	}
	end := offset + pageSize
	if end > len(outcomes) {
		end = len(outcomes)
	}
	page.Outcomes = outcomes[offset:end]
	if end < len(outcomes) {
		page.NextPageToken = encodePageToken(end)
	}
	return page, nil
}

// Close cancels every live job and waits for their goroutines. Further
// submissions fail with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	cancels := make([]context.CancelFunc, 0, len(m.jobs))
	for _, j := range m.jobs {
		if !j.info.State.Terminal() {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	m.wg.Wait()
}

// Pagination tokens are opaque offsets: versioned, base64-wrapped, so
// clients cannot meaningfully construct or arithmetic on them.
func encodePageToken(offset int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("o1:" + strconv.Itoa(offset)))
}

func decodePageToken(tok string) (int, error) {
	if tok == "" {
		return 0, nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrPageToken, err)
	}
	rest, ok := strings.CutPrefix(string(raw), "o1:")
	if !ok {
		return 0, fmt.Errorf("%w: bad version", ErrPageToken)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: bad offset", ErrPageToken)
	}
	return n, nil
}
