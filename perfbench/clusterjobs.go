package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Job shape for cluster-jobs. Every job mixes jobRepeated cells from the
// same tenant's earlier jobs, which the coordinator answers from its
// tenant cache, with fresh cells the workers compute. Fresh cells are
// small so that scheduling, HTTP, shard streaming and the cache carry
// the time rather than the kernel.
const (
	jobTenants  = 2
	jobCells    = 8
	jobRepeated = 2
	jobPageSize = 3
	jobTrials   = 10
	jobBlocks   = 100
	jobWorkers  = 2
)

var (
	jobProtocols = []string{"pow", "mlpos", "slpos", "cpos"}
	jobShares    = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
)

// jobStack is the job service on loopback: a jobs.Manager behind a
// jobs.Server, run by jobs.ClusterRunner over two in-process
// cluster.WorkerServers, all sharing one disk cache directory as in the
// README's cluster deployment.
type jobStack struct {
	servers []*http.Server
	serving sync.WaitGroup // one per server's Serve goroutine
	mgr     *jobs.Manager
	client  *jobs.Client
	pool    *http.Transport // the client's connection pool
	t       *tracer

	// done holds, per job ID, a channel closed when the job's run
	// returns, so a client learns of completion without a polling
	// interval setting the latency floor.
	done sync.Map
}

func startJobStack(dir string, t *tracer) (*jobStack, error) {
	st := &jobStack{t: t}
	var urls []string
	for i := range jobWorkers {
		dc, err := sweep.NewDiskCache(dir)
		if err != nil {
			st.close()
			return nil, err
		}
		run := cluster.LocalRunner(sweep.Options{Cache: dc})
		if t != nil {
			run = tracedRunFunc(t, fmt.Sprintf("worker%d", i), dc)
		}
		ws := cluster.NewWorkerServer(run)
		mux := http.NewServeMux()
		ws.Register(mux)
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(map[string]any{
				"status": "ok", "backend": "montecarlo",
				"shards_in_flight": ws.InFlight(), "shards_done": ws.Done(),
			})
		})
		url, err := st.serve(mux)
		if err != nil {
			st.close()
			return nil, err
		}
		urls = append(urls, url)
	}

	cache, err := sweep.NewDiskCache(dir)
	if err != nil {
		st.close()
		return nil, err
	}
	// No HTTPClient, as in fairnessd: cluster.Run dials each job's
	// workers through a connection pool of its own.
	base := cluster.Options{Workers: urls}
	runner := jobs.ClusterRunner(base)
	if t != nil {
		runner = tracedRunner(t, base)
	}
	st.mgr, err = jobs.NewManager(jobs.Config{
		Runner: st.notify(runner),
		Cache:  cache,
		// As fairnessd's cluster mode: twice the pool keeps every worker
		// busy while tenants still contest dispatch.
		Capacity: func() int { return 2 * len(urls) },
	})
	if err != nil {
		st.close()
		return nil, err
	}
	mux := http.NewServeMux()
	jobs.NewServer(st.mgr).Register(mux)
	url, err := st.serve(mux)
	if err != nil {
		st.close()
		return nil, err
	}
	st.pool = http.DefaultTransport.(*http.Transport).Clone()
	st.client = &jobs.Client{Base: url, HTTP: &http.Client{Transport: st.pool}}
	return st, nil
}

// serve starts an HTTP server for h on a loopback port.
func (st *jobStack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		srv.Serve(ln) // returns ErrServerClosed once close stops the server
	}()
	return "http://" + ln.Addr().String(), nil
}

// close cancels live jobs, then stops the servers and drops idle
// connections.
func (st *jobStack) close() {
	if st.mgr != nil {
		st.mgr.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
	st.serving.Wait()
	if st.pool != nil {
		st.pool.CloseIdleConnections()
	}
}

// notify wraps the runner so each job's done channel closes as its run
// returns.
func (st *jobStack) notify(run jobs.SweepRunner) jobs.SweepRunner {
	return func(ctx context.Context, specs []scenario.Spec, gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
		rep, err := run(ctx, specs, gate, cache)
		close(st.doneCh(telemetry.BaggageFrom(ctx)["job"]))
		return rep, err
	}
}

func (st *jobStack) doneCh(id string) chan struct{} {
	if c, ok := st.done.Load(id); ok {
		return c.(chan struct{})
	}
	c, _ := st.done.LoadOrStore(id, make(chan struct{}))
	return c.(chan struct{})
}

// runJob is one client request: submit over HTTP, learn that the job
// finished, fetch every results page.
func (st *jobStack) runJob(ctx context.Context, tenant string, specs []scenario.Spec) ([]sweep.Outcome, error) {
	body, err := json.Marshal(specs)
	if err != nil {
		return nil, err
	}
	t := st.t
	traced := t.enabled()
	var req span
	if traced {
		req = span{id: t.ids.Add(1), kind: kRequest, track: "client", start: t.now(), n: int64(len(specs))}
	}
	// call records one client call as a child of the request span.
	call := func(k kind, start int64) {
		if traced {
			t.add(span{id: t.ids.Add(1), parent: req.id, kind: k, track: "client", request: req.request, start: start, end: t.now()})
		}
	}

	start := t.now()
	info, err := st.client.Submit(ctx, jobs.SubmitBody{Tenant: tenant, Spec: body})
	if err != nil {
		return nil, err
	}
	req.request = info.ID
	call(kSubmit, start)
	select {
	case <-st.doneCh(info.ID):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	st.done.Delete(info.ID)
	// The run has returned; the manager records the terminal state
	// right after, so this confirmation rarely waits.
	for !info.State.Terminal() {
		if info, err = st.client.Get(ctx, info.ID); err != nil {
			return nil, err
		}
		if !info.State.Terminal() {
			time.Sleep(50 * time.Microsecond)
		}
	}
	if info.State != jobs.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	var outs []sweep.Outcome
	token := ""
	for {
		start := t.now()
		page, err := st.client.ResultsPage(ctx, info.ID, token, jobPageSize)
		if err != nil {
			return nil, err
		}
		call(kResults, start)
		outs = append(outs, page.Outcomes...)
		if token = page.NextPageToken; token == "" {
			break
		}
	}
	if traced {
		req.end = t.now()
		t.add(req)
	}
	return outs, nil
}

// jobsBench is the cluster-jobs workload: two tenants in a closed loop,
// each submitting small grid jobs to the job service.
type jobsBench struct {
	st      *jobStack
	tenants []*tenantCells
}

// tenantCells generates one tenant's jobs. Tenants' cells are disjoint,
// so worker-side cache hits cannot depend on how their jobs interleave.
type tenantCells struct {
	name  string
	seed  uint64
	rng   *rand.Rand
	fresh int // cells generated so far; cell k is cell(k)
}

func (tc *tenantCells) cell(k int) scenario.Spec {
	return scenario.Spec{
		Name:     fmt.Sprintf("%s/c%d", tc.name, k),
		Protocol: jobProtocols[k%len(jobProtocols)],
		Stake:    jobShares[(k/len(jobProtocols))%len(jobShares)],
		Trials:   jobTrials,
		Blocks:   jobBlocks,
		Seed:     splitmix(tc.seed + uint64(k)),
	}
}

// next returns the cell indices of the tenant's next job. Once the
// tenant has history, the job mixes jobRepeated distinct earlier cells
// into random positions among fresh ones; the first job is all fresh.
func (tc *tenantCells) next() []int {
	cells := make([]int, jobCells)
	for i := range cells {
		cells[i] = -1
	}
	if tc.fresh >= jobRepeated {
		picked := make(map[int]bool, jobRepeated)
		for _, pos := range tc.rng.Perm(jobCells)[:jobRepeated] {
			k := tc.rng.IntN(tc.fresh)
			for picked[k] {
				k = tc.rng.IntN(tc.fresh)
			}
			picked[k] = true
			cells[pos] = k
		}
	}
	for i := range cells {
		if cells[i] < 0 {
			cells[i] = tc.fresh
			tc.fresh++
		}
	}
	return cells
}

func (tc *tenantCells) specs(cells []int) []scenario.Spec {
	specs := make([]scenario.Spec, len(cells))
	for i, k := range cells {
		specs[i] = tc.cell(k)
	}
	return specs
}

// splitmix is the SplitMix64 finaliser, spreading cell indices into
// well-separated, never-zero scenario seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return max(x, 1)
}

// setupJobs starts the job stack on dir, its fresh cache directory.
func setupJobs(dir string, seed uint64, t *tracer) (bench, error) {
	st, err := startJobStack(dir, t)
	if err != nil {
		return nil, err
	}
	b := &jobsBench{st: st}
	for i := range jobTenants {
		b.tenants = append(b.tenants, &tenantCells{
			name: fmt.Sprintf("tenant%d", i),
			seed: splitmix(seed<<8 | uint64(i)),
			rng:  rand.New(rand.NewPCG(seed, uint64(i))),
		})
	}
	return b, nil
}

func (b *jobsBench) do(ctx context.Context, caller int, _ string) (reply, error) {
	tc := b.tenants[caller]
	cells := tc.next()
	outs, err := b.st.runJob(ctx, tc.name, tc.specs(cells))
	if err != nil {
		return reply{}, err
	}
	got, err := digest(outs)
	if err != nil {
		return reply{}, err
	}
	// The check keeps only cell indices and a digest, so deferring it
	// to the end of the phase holds little memory.
	return reply{scenarios: len(outs), check: func() error {
		// The coordinator promises a merge bit-identical to a local
		// sweep of the same specs.
		local, err := sweep.Run(tc.specs(cells), sweep.Options{})
		if err != nil {
			return err
		}
		want, err := digest(local.Outcomes)
		if err != nil {
			return err
		}
		if got != want {
			return errors.New("cluster-jobs: job outcomes differ from a local sweep")
		}
		return nil
	}}, nil
}

// canonical encodes outcomes without the fields that record where and
// when the work ran (ElapsedMS, CacheHit), leaving everything that must
// be a pure function of the spec.
func canonical(outs []sweep.Outcome) ([]byte, error) {
	c := make([]sweep.Outcome, len(outs))
	copy(c, outs)
	for i := range c {
		c[i].ElapsedMS, c[i].CacheHit = 0, false
	}
	return json.Marshal(c)
}

// digest is the SHA-256 of the canonical outcomes.
func digest(outs []sweep.Outcome) ([sha256.Size]byte, error) {
	c, err := canonical(outs)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(c), nil
}

// scenarios returns one job's worth of cells, for timing the scenario
// layer directly.
func (b *jobsBench) scenarios() []scenario.Spec {
	tc := &tenantCells{name: "layer", seed: b.tenants[0].seed, rng: rand.New(rand.NewPCG(0, 0))}
	return tc.specs(tc.next())
}

func (b *jobsBench) close() { b.st.close() }
