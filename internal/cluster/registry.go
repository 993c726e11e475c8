package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Membership defaults. A worker that misses every heartbeat for one TTL
// falls out of the live set; a worker that let a shard lease expire is
// quarantined for penaltyCooldown before re-registration surfaces it
// again (its heartbeats keep arriving, they just don't count).
const (
	defaultRegistryTTL  = 15 * time.Second
	penaltyCooldown     = 10 * time.Second
	heartbeatPerTTL     = 3 // workers heartbeat every TTL/heartbeatPerTTL
	rateEWMAAlpha       = 0.3
	maxRegistryBodySize = 1 << 16
)

// Member is one worker's registry entry as surfaced to schedulers and
// the coordinator's /v1/healthz.
type Member struct {
	URL     string `json:"url"`
	Backend string `json:"backend"`
	// Static marks a seed worker from a -workers list: it never expires
	// and never heartbeats; it leaves the pool only when quarantined (a
	// claim and then the liveness probe fail, its lease expires, or it
	// streams a bad outcome).
	Static bool `json:"static,omitempty"`
	// ScenariosPerSec is the registry's best throughput estimate: the
	// coordinator-observed EWMA when shards have completed, otherwise
	// the rate the worker reported (heartbeat, or a static worker's
	// healthz).
	ScenariosPerSec float64 `json:"scenarios_per_sec,omitempty"`
	// LastSeenMS is milliseconds since the last heartbeat (0 for static
	// members, which are probed instead).
	LastSeenMS int64 `json:"last_seen_ms"`
}

// member is the mutable registry record behind a Member view.
type member struct {
	url, backend   string
	static         bool
	lastSeen       time.Time // zero for static members: no expiry
	penalizedUntil time.Time
	reportedRate   float64 // worker-reported scenarios/sec (heartbeat or healthz)
	localRate      float64 // coordinator-observed EWMA
	hasLocalRate   bool
}

// Registry is the coordinator-side worker membership table behind
// self-organizing clusters: workers register themselves (POST
// /v1/register through a RegistryServer, or Register directly),
// heartbeat to renew their lease, and fall out of the live set when the
// lease expires or they deregister. The registry also carries the
// per-worker throughput estimate (EWMA of scenarios/sec) adaptive shard
// sizing feeds on.
//
// A Registry may outlive any single run: pass the same instance to
// successive runs, or keep one Coordinator, and the learned throughput
// rates carry over. A Coordinator over static Workers and no Registry
// keeps a registry of its own, so its static workers' membership and
// rates carry over between its runs as well.
type Registry struct {
	mu      sync.Mutex
	backend string
	ttl     time.Duration
	members map[string]*member
	watch   chan struct{}
}

// NewRegistry builds a registry expecting workers of the given backend
// ("" = montecarlo). ttl is the membership lease: a registered worker
// missing every heartbeat for ttl drops out of the live set (0 picks
// 15s).
func NewRegistry(backend string, ttl time.Duration) *Registry {
	if backend == "" {
		backend = "montecarlo"
	}
	if ttl <= 0 {
		ttl = defaultRegistryTTL
	}
	return &Registry{
		backend: backend,
		ttl:     ttl,
		members: make(map[string]*member),
		watch:   make(chan struct{}),
	}
}

// TTL returns the membership lease duration.
func (r *Registry) TTL() time.Duration { return r.ttl }

// Backend returns the backend every member must run.
func (r *Registry) Backend() string { return r.backend }

// requireBackend verifies a run's backend matches the registry's — a
// registry built for one evaluator cannot schedule for another.
func (r *Registry) requireBackend(backend string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if backend != r.backend {
		return fmt.Errorf("%w: registry accepts %q workers, run expects %q",
			ErrBackendMismatch, r.backend, backend)
	}
	return nil
}

// notifyLocked signals watchers that membership may have grown. The
// generation channel is closed and replaced so EVERY watcher wakes —
// several cluster runs can share one registry (the job service runs one
// per job), and a single-slot signal would wake only one of them,
// leaving the rest blind until their next supervisor tick.
func (r *Registry) notifyLocked() {
	close(r.watch)
	r.watch = make(chan struct{})
}

// Watch returns a channel closed on the next membership-growth signal
// (a worker registering, or re-registering after a penalty). It is a
// broadcast: every holder wakes, and each wake-up means "re-scan
// Live()". Call Watch again after each receive — the returned channel
// is only good for one signal.
func (r *Registry) Watch() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watch
}

// Register adds a worker (or renews its lease — heartbeats are just
// re-registrations) reporting the given backend and self-measured
// scenarios/sec (0 = unknown). A backend mismatch is refused with
// ErrBackendMismatch.
func (r *Registry) Register(url, backend string, rate float64) error {
	url = NormalizeWorkerURL(url)
	if url == "" {
		return fmt.Errorf("cluster: register: empty worker url")
	}
	if backend == "" {
		backend = "montecarlo"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if backend != r.backend {
		return fmt.Errorf("%w: worker %s runs %q, registry expects %q",
			ErrBackendMismatch, url, backend, r.backend)
	}
	m, ok := r.members[url]
	if !ok {
		m = &member{url: url, backend: backend}
		r.members[url] = m
	}
	m.backend = backend
	m.static = false
	m.lastSeen = time.Now()
	if rate > 0 {
		m.reportedRate = rate
	}
	r.notifyLocked()
	return nil
}

// addStatic seeds a probed -workers entry: a permanent member renewed
// by liveness probes rather than heartbeats. rate is the scenarios/sec
// its healthz reported (0 = unknown).
func (r *Registry) addStatic(url, backend string, rate float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[url]
	if !ok {
		m = &member{url: url, backend: backend}
		r.members[url] = m
		r.notifyLocked()
	}
	m.static = true
	m.lastSeen = time.Time{}
	if rate > 0 {
		m.reportedRate = rate
	}
}

// Deregister removes a worker immediately (the graceful-shutdown path).
// It reports whether the worker was present.
func (r *Registry) Deregister(url string) bool {
	url = NormalizeWorkerURL(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.members[url]
	delete(r.members, url)
	return ok
}

// Penalize quarantines a worker that proved unable to finish a shard
// (failed liveness probe, expired stream lease): it leaves the live set
// now and re-registrations only surface it again after a cooldown, so a
// stuck-but-heartbeating worker cannot keep reclaiming work.
func (r *Registry) Penalize(url string) {
	url = NormalizeWorkerURL(url)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[url]
	if !ok {
		return
	}
	if m.static {
		// Static members have no heartbeat to resurrect them; drop.
		delete(r.members, url)
		return
	}
	m.penalizedUntil = time.Now().Add(penaltyCooldown)
}

// rate returns a member's best throughput estimate; callers hold r.mu.
func (m *member) rate() float64 {
	if m.hasLocalRate {
		return m.localRate
	}
	return m.reportedRate
}

// expired reports whether a registered member's lease has lapsed;
// static members never expire.
func (m *member) expired(now time.Time, ttl time.Duration) bool {
	return !m.static && now.Sub(m.lastSeen) > ttl
}

// isLive reports whether url is a member eligible for work, as Live
// would list it.
func (r *Registry) isLive(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[url]
	now := time.Now()
	return ok && !m.expired(now, r.ttl) && !now.Before(m.penalizedUntil)
}

// Live prunes expired leases and returns the members currently eligible
// for work, penalized workers excluded.
func (r *Registry) Live() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	out := make([]Member, 0, len(r.members))
	for url, m := range r.members {
		if m.expired(now, r.ttl) {
			delete(r.members, url)
			continue
		}
		if now.Before(m.penalizedUntil) {
			continue
		}
		mb := Member{URL: m.url, Backend: m.backend, Static: m.static, ScenariosPerSec: m.rate()}
		if !m.static {
			mb.LastSeenMS = now.Sub(m.lastSeen).Milliseconds()
		}
		out = append(out, mb)
	}
	return out
}

// ObserveRate folds a completed shard into the worker's coordinator-side
// throughput EWMA — the signal adaptive shard sizing feeds on.
func (r *Registry) ObserveRate(url string, scenarios int, wall time.Duration) {
	if scenarios <= 0 || wall <= 0 {
		return
	}
	obs := float64(scenarios) / wall.Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[NormalizeWorkerURL(url)]
	if !ok {
		return
	}
	if !m.hasLocalRate {
		m.localRate = obs
		m.hasLocalRate = true
		return
	}
	m.localRate = rateEWMAAlpha*obs + (1-rateEWMAAlpha)*m.localRate
}

// Rate returns the registry's throughput estimate for a worker
// (scenarios/sec; 0 = unknown/cold).
func (r *Registry) Rate(url string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[NormalizeWorkerURL(url)]; ok {
		return m.rate()
	}
	return 0
}

// registerRequest is the body of POST /v1/register and /v1/deregister.
type registerRequest struct {
	URL             string  `json:"url"`
	Backend         string  `json:"backend,omitempty"`
	ScenariosPerSec float64 `json:"scenarios_per_sec,omitempty"`
}

// registerResponse tells the worker its lease and suggested heartbeat.
type registerResponse struct {
	TTLMS       int64 `json:"ttl_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// RegistryServer is the coordinator's HTTP listener: worker
// registration, deregistration and a coordinator healthz, mounted on any
// mux. fairctl `run -listen` serves one next to the scheduler.
type RegistryServer struct {
	reg *Registry
}

// NewRegistryServer wraps a registry in its HTTP face.
func NewRegistryServer(reg *Registry) *RegistryServer {
	return &RegistryServer{reg: reg}
}

// Register mounts the coordinator endpoints on mux.
func (s *RegistryServer) Register(mux *http.ServeMux) {
	s.RegisterMembership(mux)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
}

// RegisterMembership mounts only the membership endpoints (register and
// deregister) — for hosts whose mux already serves its own healthz
// route, like a fairnessd running the job service in cluster mode.
func (s *RegistryServer) RegisterMembership(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/register", s.handleRegister)
	mux.HandleFunc("POST /v1/deregister", s.handleDeregister)
}

func (s *RegistryServer) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRegistryBodySize)).Decode(&req); err != nil {
		shardError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.reg.Register(req.URL, req.Backend, req.ScenariosPerSec); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrBackendMismatch) {
			status = http.StatusConflict
		}
		shardError(w, status, err)
		return
	}
	ttl := s.reg.TTL()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(registerResponse{
		TTLMS:       ttl.Milliseconds(),
		HeartbeatMS: (ttl / heartbeatPerTTL).Milliseconds(),
	})
}

func (s *RegistryServer) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRegistryBodySize)).Decode(&req); err != nil {
		shardError(w, http.StatusBadRequest, err)
		return
	}
	removed := s.reg.Deregister(req.URL)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]bool{"removed": removed})
}

func (s *RegistryServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	live := s.reg.Live()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":  "ok",
		"role":    "coordinator",
		"backend": s.reg.Backend(),
		"workers": len(live),
		"members": live,
		"ttl_ms":  s.reg.TTL().Milliseconds(),
	})
}

// Registrar is the worker-side registration client: it announces the
// worker to a coordinator, heartbeats to keep the membership lease
// fresh, and deregisters gracefully when its context ends (fairnessd
// wires this to SIGTERM).
type Registrar struct {
	// Coordinator is the coordinator base URL, Self the worker base URL
	// as reachable FROM the coordinator.
	Coordinator string
	Self        string
	// Backend names the worker's evaluator ("" = montecarlo).
	Backend string
	// Rate, when non-nil, supplies the worker's self-measured
	// scenarios/sec for each heartbeat.
	Rate func() float64
	// Interval overrides the coordinator-suggested heartbeat cadence.
	Interval time.Duration
	// Client overrides the HTTP transport.
	Client *http.Client
	// OnError observes registration failures (nil = dropped); the
	// registrar itself never gives up — it retries on the next beat.
	OnError func(error)
}

// register posts one registration/heartbeat and returns the suggested
// next interval.
func (rg *Registrar) register(ctx context.Context) (time.Duration, error) {
	rate := 0.0
	if rg.Rate != nil {
		rate = rg.Rate()
	}
	body, err := json.Marshal(registerRequest{
		URL: rg.Self, Backend: rg.Backend, ScenariosPerSec: rate,
	})
	if err != nil {
		return 0, err
	}
	status, reply, err := rg.post(ctx, "/v1/register", body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("register status %d", status)
	}
	var rr registerResponse
	if err := json.Unmarshal(reply, &rr); err != nil {
		return 0, err
	}
	return time.Duration(rr.HeartbeatMS) * time.Millisecond, nil
}

// post issues one registration-protocol request with a bounded timeout
// and returns the reply's status and body, read within that timeout.
func (rg *Registrar) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	client := rg.Client
	if client == nil {
		client = http.DefaultClient
	}
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost,
		NormalizeWorkerURL(rg.Coordinator)+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxRegistryBodySize))
	return resp.StatusCode, reply, err
}

// Run registers, heartbeats until ctx ends, then deregisters
// (best-effort, on a fresh short-lived context so shutdown still
// announces itself). Registration failures are reported through OnError
// and retried on the next beat — a coordinator that boots late still
// picks the worker up.
//
// A beat in flight when ctx ends runs to completion (within post's
// timeout) before the deregister: abandoned, it could still land after
// the deregister and keep the exited worker live until its lease lapsed.
func (rg *Registrar) Run(ctx context.Context) {
	interval := rg.Interval
	if interval <= 0 {
		interval = defaultRegistryTTL / heartbeatPerTTL
	}
	beatCtx := context.WithoutCancel(ctx)
	for {
		suggested, err := rg.register(beatCtx)
		if err != nil {
			if rg.OnError != nil {
				rg.OnError(err)
			}
		} else if rg.Interval <= 0 && suggested > 0 {
			interval = suggested
		}
		select {
		case <-ctx.Done():
			rg.deregister()
			return
		case <-time.After(interval):
		}
	}
}

// deregister announces a graceful shutdown.
func (rg *Registrar) deregister() {
	body, err := json.Marshal(registerRequest{URL: rg.Self})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, _, err := rg.post(ctx, "/v1/deregister", body); err != nil && rg.OnError != nil {
		rg.OnError(err)
	}
}
