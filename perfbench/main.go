// Command perfbench is the repository's benchmark: it drives the
// fairness library in-process through its public functions on two
// workloads and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run) as one JSON line.
//
// Run it from the repository root through perfbench/run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload fig3-cold --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	fig3-cold     Figure 3's 16 cells, exhaustive Monte-Carlo, no cache
//	cluster-jobs  two tenants' grid jobs through the job service and a
//	              two-worker cluster sharing one disk cache
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// bench is one set-up instance of a workload.
type bench interface {
	// do runs one request for caller c; id labels its spans.
	do(ctx context.Context, c int, id string) (reply, error)
	// scenarios returns the workload's own specs, which the traced run
	// validates, normalises and hashes directly.
	scenarios() []scenario.Spec
	close()
}

// reply is one request's result: the scenarios it answered and a check
// of its outputs against a reference, which runs outside the timed
// window.
type reply struct {
	scenarios int
	check     func() error
}

type workload struct {
	name    string
	callers int
	scale   map[string]any
	// setup starts an instance on dir, a fresh, empty directory the
	// harness made before the set-up's timer started. Making it is the
	// harness's bookkeeping, and a mkdir on the ext4 volume this was
	// measured on took 80 to 200 µs, more than the rest of a cluster-jobs
	// set-up.
	setup func(dir string, seed uint64, t *tracer) (bench, error)
	// warm is how long the timed instance runs untimed requests first.
	warm time.Duration
}

var workloads = []workload{
	// A fresh process runs its first Figure-3 grids up to twice as
	// slowly; two seconds of grids gets past that.
	{name: "fig3-cold", callers: 1, setup: setupFig3, warm: 2 * time.Second,
		scale: map[string]any{"cells": 16, "trials": fig3Trials, "blocks": fig3Blocks}},
	// cluster-jobs starts on an empty cache directory, and until each of
	// its three namespaces (the workers' and one per tenant) has created
	// all 256 fan-out directories, about 1,500 puts each, jobs run up to
	// twice as slowly; five seconds of jobs gets past that.
	{name: "cluster-jobs", callers: jobTenants, setup: setupJobs, warm: 5 * time.Second,
		scale: map[string]any{"tenants": jobTenants, "workers": jobWorkers, "cells_per_job": jobCells,
			"repeated_per_job": jobRepeated, "page_size": jobPageSize, "trials": jobTrials, "blocks": jobBlocks}},
}

// Run shape. The untraced run's timed phase is cut into setupSlices
// slices, and between two slices fresh set-ups are timed for at least
// setupBatch: the machine's speed drifts over seconds, so set-ups spread
// over the run see the same drift as its requests. minRequests leaves
// minTail requests beyond p90. Traced runs alternate tracing per slice
// of traceSlice.
const (
	setupSlices   = 20
	setupBatch    = 50 * time.Millisecond
	warmUpMinReqs = 10
	minRequests   = 100
	maxExtra      = 60 * time.Second
	traceSlice    = 500 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload: fig3-cold or cluster-jobs")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workDir holds the run's scratch caches and the traced run's spans,
// inside the checkout the benchmark runs from.
var workDir = filepath.Join(".bench_build", "work")

func run(name string, seed uint64, seconds time.Duration, traced bool) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	ws, err := newWorkspace(workDir, name)
	if err != nil {
		return nil, err
	}
	defer ws.remove()
	printEnvironment(os.Stdout, w, seed, traced)
	if traced {
		return tracedRun(w, ws, seed, seconds)
	}
	return untracedRun(w, ws, seed, seconds)
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, ws *workspace, seed uint64, seconds time.Duration) (*result, error) {
	dir, err := ws.fresh()
	if err != nil {
		return nil, err
	}
	b, err := w.setup(dir, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	if err := warmUp(b, w.callers, w.warm); err != nil {
		return nil, err
	}
	var setups []float64
	timeSetups := func() error {
		for start := time.Now(); time.Since(start) < setupBatch; {
			dir, err := ws.fresh()
			if err != nil {
				return err
			}
			t0 := time.Now()
			fresh, err := w.setup(dir, seed, nil)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			fresh.close()
		}
		return nil
	}
	ph, err := measure(b, w.callers, seconds, seconds/setupSlices, nil, timeSetups)
	if err != nil {
		return nil, err
	}
	res := ph.result()
	if ph.requests() == 0 || ph.scenarios[0] == 0 {
		return nil, fmt.Errorf("no request completed: %v", ph.firstErr)
	}
	lat := ph.latenciesMS()
	if !enoughFor(len(lat), 90) {
		return nil, fmt.Errorf("%d requests leave fewer than %d beyond p90", len(lat), minTail)
	}
	if len(ph.rssMiB) != len(lat) {
		return nil, fmt.Errorf("read the resident set after %d of %d requests", len(ph.rssMiB), len(lat))
	}
	scen := float64(ph.scenarios[0])
	res.Metrics = map[string]metric{
		"scenarios_per_s":     {scen / ph.wall[0].Seconds(), "1/s"},
		"req_p50_ms":          {percentile(lat, 50), "ms"},
		"req_p90_ms":          {percentile(lat, 90), "ms"},
		"cpu_ms_per_scenario": {float64(ph.work[0].cpu.Microseconds()) / 1000 / scen, "ms"},
		"peak_rss_mb":         {percentile(ph.rssMiB, 99), "MiB"},
		"setup_s":             {median(setups), "s"},
	}
	u, err := readUsage()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests, %d scenarios in %.2fs; kernel peak RSS %.1f MiB; %d set-ups, p10/p50/p90 %.5f/%.5f/%.5f s\n",
		w.name, ph.requests(), ph.scenarios[0], ph.wall[0].Seconds(), mib(u.maxRSS),
		len(setups), percentile(setups, 10), median(setups), percentile(setups, 90))
	return res, nil
}

// warmUp runs untimed requests for at least d and warmUpMinReqs
// requests per caller.
func warmUp(b bench, callers int, d time.Duration) error {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warmUpMinReqs || time.Now().Before(deadline); i++ {
				if _, err := b.do(context.Background(), c, fmt.Sprintf("warm%d.%d", c, i)); err != nil {
					errs[c] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phase is what a timed phase measured, split by tracing mode
// (index 0 untraced, 1 traced).
type phase struct {
	lat       [2][]time.Duration
	scenarios [2]int
	// rssMiB samples the resident set after every untraced request.
	rssMiB []float64
	// wall and work sum the slices of each mode: their length, and the
	// program's counters read at their ends.
	wall      [2]time.Duration
	work      [2]counters
	attempted int
	failed    int
	firstErr  error
	// checks holds the output check of every request that returned.
	checks []func() error
}

func (p *phase) requests() int { return len(p.lat[0]) + len(p.lat[1]) }

func (p *phase) latenciesMS() []float64 {
	out := make([]float64, len(p.lat[0]))
	for i, d := range p.lat[0] {
		out[i] = float64(d.Microseconds()) / 1000
	}
	return out
}

func (p *phase) result() *result {
	return &result{Correct: p.failed == 0 && p.attempted > 0, Attempted: p.attempted, Failed: p.failed}
}

func (p *phase) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// counters are process totals read around a timed window: CPU time,
// heap allocation, the runtime's CPU classes and the Monte-Carlo steps
// the program itself metered.
type counters struct {
	cpu                      time.Duration
	allocBytes, allocs       uint64
	gcCPU, totalCPU, idleCPU float64
	steps                    int64
}

var (
	mcBlocks       = telemetry.Default().Counter("fairness_montecarlo_blocks_total")
	runtimeMetrics = []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
		"/cpu/classes/idle:cpu-seconds",
	}
)

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	u, _ := readUsage()
	return counters{
		cpu:        u.cpu,
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		idleCPU:    s[4].Value.Float64(),
		steps:      mcBlocks.Value(),
	}
}

// add accumulates the difference after - before into c.
func (c *counters) add(before, after counters) {
	c.cpu += after.cpu - before.cpu
	c.allocBytes += after.allocBytes - before.allocBytes
	c.allocs += after.allocs - before.allocs
	c.gcCPU += after.gcCPU - before.gcCPU
	c.totalCPU += after.totalCPU - before.totalCPU
	c.idleCPU += after.idleCPU - before.idleCPU
	c.steps += after.steps - before.steps
}

// measure runs callers in a closed loop in slices of sliceLen until the
// slices add up to d and at least minRequests requests have run. With a
// tracer, slices alternate untraced and traced. between, if not nil,
// runs between two slices, outside every timed window. The output
// checks run after the last slice.
func measure(b bench, callers int, d, sliceLen time.Duration, t *tracer, between func() error) (*phase, error) {
	p := &phase{}
	for n := 0; ; n++ {
		mode := 0
		if t != nil {
			mode = n % 2
			t.on.Store(mode == 1)
		}
		p.slice(b, callers, sliceLen, mode, n)
		elapsed := p.wall[0] + p.wall[1]
		if elapsed >= d && (p.requests() >= minRequests || elapsed >= d+maxExtra) {
			break
		}
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	if t != nil {
		t.on.Store(false)
	}
	for _, check := range p.checks {
		if err := check(); err != nil {
			p.fail(err)
		}
	}
	if p.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", p.firstErr)
	}
	return p, nil
}

// slice runs callers in a closed loop for sliceLen; every caller
// finishes its request before the slice ends, so each request runs
// wholly in one slice and one mode. The slice's length and the
// program's counters over it add to the mode's totals.
func (p *phase) slice(b bench, callers int, sliceLen time.Duration, mode, n int) {
	start, before := time.Now(), readCounters()
	deadline := start.Add(sliceLen)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				rep, err := b.do(context.Background(), c, fmt.Sprintf("s%d.c%d.r%d", n, c, i))
				lat := time.Since(t0)
				rss, rssErr := residentBytes()
				mu.Lock()
				p.attempted++
				p.lat[mode] = append(p.lat[mode], lat)
				if mode == 0 && rssErr == nil {
					p.rssMiB = append(p.rssMiB, mib(rss))
				}
				if err != nil {
					p.fail(err)
				} else {
					p.scenarios[mode] += rep.scenarios
					p.checks = append(p.checks, rep.check)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.work[mode].add(before, readCounters())
	p.wall[mode] += time.Since(start)
}

// workspace is the run's scratch directory inside the checkout.
type workspace struct {
	root string
	seq  int
}

func newWorkspace(base, name string) (*workspace, error) {
	root := filepath.Join(base, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &workspace{root: root}, nil
}

// fresh returns a new, empty directory.
func (ws *workspace) fresh() (string, error) {
	ws.seq++
	dir := filepath.Join(ws.root, fmt.Sprintf("d%d", ws.seq))
	return dir, os.MkdirAll(dir, 0o755)
}

func (ws *workspace) remove() { os.RemoveAll(ws.root) }

// printEnvironment records the machine and workload the result was
// measured on, as a JSON line ahead of the result.
func printEnvironment(out io.Writer, w *workload, seed uint64, traced bool) {
	env := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"traced":     traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"scale":      w.scale,
	}
	data, _ := json.Marshal(map[string]any{"environment": env})
	fmt.Fprintln(out, string(data))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
