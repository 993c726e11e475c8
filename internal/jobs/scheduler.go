// Scheduler is the job service's weighted fair-share arbiter. It
// implements stride scheduling over tenants: every grant charges the
// dispatching tenant "pass" time inversely proportional to its effective
// weight, and the next grant always goes to the eligible tenant with the
// lowest pass. Because a tenant's pass only grows while it dispatches,
// any tenant that falls behind becomes the minimum in bounded time —
// starvation-freedom is structural, not a tuning outcome.
//
// The scheduler plugs into the cluster through cluster.DispatchGate: one
// gate per job, all gates sharing this scheduler, so fairness acts at
// true shard-dispatch granularity while the cluster's merge machinery
// (and therefore bit-identical reports) stays untouched.
package jobs

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// Scheduling constants.
const (
	// priorityClamp bounds the per-job priority boost: effective weight
	// is scaled by 2^priority with priority clamped to ±priorityClamp.
	priorityClamp = 3
	// deadlineBoostMax caps the urgency multiplier a looming deadline
	// can add on top of tenant weight and priority.
	deadlineBoostMax = 8
	// deadlineHorizon is the lead time at which a deadline starts to
	// matter: a job due in one horizon gets boost 1, due in half a
	// horizon gets 2, and so on up to deadlineBoostMax.
	deadlineHorizon = time.Hour
)

// Scheduler arbitrates shard dispatch across tenants. Construct with
// NewScheduler; the zero value is unusable.
type Scheduler struct {
	capacity func() int // max concurrently outstanding grants (<1 reads as 1)
	metrics  *telemetry.Registry
	tracer   *telemetry.Tracer

	mu          sync.Mutex
	tenants     map[string]*schedTenant
	pending     []*gateReq
	outstanding int
	seq         uint64 // arrival order, tie-break within equal pass
}

// schedTenant is one tenant's scheduling state.
type schedTenant struct {
	name        string
	weight      float64 // configured share weight (>0; default 1)
	maxInflight int     // max in-flight scenarios (0 = unlimited)
	pass        float64 // stride virtual time, in scenarios/weight units
	inflight    int     // scenarios currently granted and not yet released
	active      int     // pending requests + outstanding grants
}

// gateReq is one blocked Acquire.
type gateReq struct {
	tenant *schedTenant
	want   int
	eff    float64 // effective weight at enqueue time
	seq    uint64
	span   *telemetry.Span // the wait's gate_wait span, ended at the grant
	ch     chan grant      // buffered(1); receives exactly once if granted
}

type grant struct {
	n       int
	release func()
}

// NewScheduler builds a scheduler. capacity bounds how many grants may
// be outstanding at once — fairness only binds when dispatch is scarcer
// than demand, so pass something proportional to the worker pool (the
// manager uses 2× live workers for cluster runs, 1 for local runs). A
// nil capacity or one returning < 1 reads as 1. Each wait at a gate is a
// gate_wait span on tr, under the acquiring context's span. Metrics and
// tracer may be nil.
func NewScheduler(capacity func() int, m *telemetry.Registry, tr *telemetry.Tracer) *Scheduler {
	return &Scheduler{
		capacity: capacity,
		metrics:  m,
		tracer:   tr,
		tenants:  make(map[string]*schedTenant),
	}
}

// SetTenant configures one tenant's share weight (<=0 reads as 1) and
// in-flight scenario quota (0 = unlimited). Unconfigured tenants get
// weight 1 and no quota on first use.
func (s *Scheduler) SetTenant(name string, weight float64, maxInflight int) {
	s.mu.Lock()
	t := s.tenantLocked(name)
	if weight <= 0 {
		weight = 1
	}
	t.weight = weight
	t.maxInflight = maxInflight
	s.grantLocked()
	s.mu.Unlock()
}

func (s *Scheduler) tenantLocked(name string) *schedTenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &schedTenant{name: name, weight: 1}
		s.tenants[name] = t
	}
	return t
}

// Gate returns the dispatch gate for one job: every Acquire contends on
// this scheduler under the job's tenant, biased by priority (each step
// doubles or halves the effective weight, clamped to ±3) and deadline
// (urgency grows as the deadline approaches, capped at 8×; zero means
// no deadline).
func (s *Scheduler) Gate(tenant, jobID string, priority int, deadline time.Time) cluster.DispatchGate {
	return &schedGate{s: s, tenant: tenant, job: jobID, priority: priority, deadline: deadline}
}

type schedGate struct {
	s        *Scheduler
	tenant   string
	job      string
	priority int
	deadline time.Time
}

// effWeight computes a gate's effective weight right now.
func (g *schedGate) effWeight(base float64) float64 {
	p := g.priority
	if p > priorityClamp {
		p = priorityClamp
	} else if p < -priorityClamp {
		p = -priorityClamp
	}
	w := base * math.Pow(2, float64(p))
	if !g.deadline.IsZero() {
		remaining := time.Until(g.deadline)
		boost := deadlineBoostMax
		if remaining > 0 {
			b := float64(deadlineHorizon) / float64(remaining)
			switch {
			case b < 1:
				boost = 1
			case b < deadlineBoostMax:
				boost = int(b)
			}
		}
		w *= float64(boost)
	}
	return w
}

// Acquire implements cluster.DispatchGate: block until the scheduler
// picks this job's tenant for the next dispatch, then return how many
// scenarios may ship (possibly fewer than want, clamped by the tenant's
// in-flight quota) and a release to call when they land. The wait is a
// gate_wait span under ctx's span; it ends at the grant, under the
// scheduler lock, so gate_wait end lines are in grant order.
func (g *schedGate) Acquire(ctx context.Context, want int) (int, func(), error) {
	if want < 1 {
		want = 1
	}
	s := g.s
	waitStart := time.Now()
	span := telemetry.StartSpan(s.tracer, telemetry.SpanContextFrom(ctx),
		"jobs", "gate_wait", "tenant", g.tenant, "job", g.job, "want", want)

	s.mu.Lock()
	t := s.tenantLocked(g.tenant)
	if t.active == 0 {
		// A tenant (re)joining the fray starts at the current virtual
		// time, not at its stale pass: it must not be owed service for
		// the period it had nothing to dispatch, nor punished for
		// dispatch it did long ago.
		if v, ok := s.minActivePassLocked(); ok && v > t.pass {
			t.pass = v
		}
	}
	t.active++
	req := &gateReq{
		tenant: t,
		want:   want,
		eff:    g.effWeight(t.weight),
		seq:    s.seq,
		span:   span,
		ch:     make(chan grant, 1),
	}
	s.seq++
	s.pending = append(s.pending, req)
	s.grantLocked()
	s.mu.Unlock()

	select {
	case gr := <-req.ch:
		s.metrics.Histogram("fairness_jobs_gate_wait_seconds", telemetry.DefBuckets, "tenant", g.tenant).
			Observe(time.Since(waitStart).Seconds())
		return gr.n, gr.release, nil
	case <-ctx.Done():
		s.mu.Lock()
		removed := s.removePendingLocked(req)
		if removed {
			t.active--
			span.End("status", "cancelled")
		}
		s.mu.Unlock()
		if !removed {
			// Lost the race: the grant landed while we were cancelling.
			// Take it and hand it straight back so the accounting stays
			// balanced.
			gr := <-req.ch
			gr.release()
		}
		return 0, func() {}, ctx.Err()
	}
}

// minActivePassLocked returns the lowest pass among tenants with work in
// the system — the scheduler's virtual time.
func (s *Scheduler) minActivePassLocked() (float64, bool) {
	v, ok := 0.0, false
	for _, t := range s.tenants {
		if t.active == 0 {
			continue
		}
		if !ok || t.pass < v {
			v, ok = t.pass, true
		}
	}
	return v, ok
}

func (s *Scheduler) removePendingLocked(req *gateReq) bool {
	for i, r := range s.pending {
		if r == req {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return true
		}
	}
	return false
}

// grantLocked hands out grants while capacity allows: each round picks
// the eligible pending request whose tenant has the lowest pass
// (arrival order breaks ties), clamps the grant to the tenant's
// in-flight quota, and charges the tenant granted/effWeight of pass —
// the stride step that makes long-run scenario allocations converge to
// configured weights under saturation.
func (s *Scheduler) grantLocked() {
	for {
		capacity := 1
		if s.capacity != nil {
			if c := s.capacity(); c > 1 {
				capacity = c
			}
		}
		if s.outstanding >= capacity {
			return
		}
		var best *gateReq
		for _, r := range s.pending {
			t := r.tenant
			if t.maxInflight > 0 && t.inflight >= t.maxInflight {
				continue
			}
			if best == nil || t.pass < best.tenant.pass ||
				(t.pass == best.tenant.pass && r.seq < best.seq) {
				best = r
			}
		}
		if best == nil {
			return
		}
		t := best.tenant
		n := best.want
		if t.maxInflight > 0 && n > t.maxInflight-t.inflight {
			n = t.maxInflight - t.inflight
		}
		s.removePendingLocked(best)
		t.pass += float64(n) / best.eff
		t.inflight += n
		s.outstanding++

		s.metrics.Counter("fairness_jobs_dispatches_total", "tenant", t.name).Inc()
		s.metrics.Counter("fairness_jobs_scenarios_dispatched_total", "tenant", t.name).Add(int64(n))
		s.metrics.Gauge("fairness_jobs_inflight_scenarios", "tenant", t.name).Set(float64(t.inflight))
		best.span.End("tenant", t.name, "granted", n, "pass", t.pass)

		granted := n
		var once sync.Once
		release := func() {
			once.Do(func() {
				s.mu.Lock()
				t.inflight -= granted
				t.active--
				s.outstanding--
				s.metrics.Gauge("fairness_jobs_inflight_scenarios", "tenant", t.name).Set(float64(t.inflight))
				s.grantLocked()
				s.mu.Unlock()
			})
		}
		best.ch <- grant{n: n, release: release}
	}
}
