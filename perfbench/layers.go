package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/scenario"
)

// Per-layer metrics and their units, in the order BENCHMARK.json lists
// them. A traced run reports every one; a count of a layer the workload
// never enters reads 0.
var layerUnits = []struct{ name, unit string }{
	{"protocol.step_ns.pow", "ns"},
	{"protocol.step_ns.mlpos", "ns"},
	{"protocol.step_ns.slpos", "ns"},
	{"protocol.step_ns.cpos", "ns"},
	{"montecarlo.steps", "count"},
	{"montecarlo.trials_per_s", "1/s"},
	{"sweep.eval_ms_per_computed", "ms"},
	{"sweep.self_us_per_scenario", "us"},
	{"sweep.alloc_kb_per_scenario", "KiB"},
	{"sweep.allocs_per_scenario", "count"},
	{"sweep.gc_cpu_frac", "frac"},
	{"scenario.prepare_us", "us"},
	{"scenario.hash_us", "us"},
	{"cachestore.get_us", "us"},
	{"cachestore.put_us", "us"},
	{"cachestore.put_bytes", "B"},
	{"cachestore.hit_ratio", "frac"},
	{"cachestore.puts_per_computed", "count"},
	{"cluster.shard_ms", "ms"},
	{"cluster.shards_per_job", "count"},
	{"cluster.wire_bytes_per_scenario", "B"},
	{"cluster.local_hit_frac", "frac"},
	{"cluster.requeues", "count"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"jobs.grant_wait_ms", "ms"},
	{"jobs.results_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// tracedRun measures the per-layer metrics. The timed phase alternates
// traced and untraced slices, which gives the tracer's own overhead.
// Output checks run as in the untraced run.
func tracedRun(w *workload, ws *workspace, seed uint64, seconds time.Duration) (*result, error) {
	t := newTracer()
	dir, err := ws.fresh()
	if err != nil {
		return nil, err
	}
	b, err := w.setup(dir, seed, t)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	if err := warmUp(b, w.callers, w.warm); err != nil {
		return nil, err
	}
	ph, err := measure(b, w.callers, seconds, traceSlice, t, nil)
	if err != nil {
		return nil, err
	}
	if ph.scenarios[0] == 0 || ph.scenarios[1] == 0 {
		return nil, fmt.Errorf("a tracing mode completed no request: %v", ph.firstErr)
	}
	spans := t.snapshot()
	m := spanMetrics(spans)
	m["montecarlo.steps"] = float64(ph.work[0].steps+ph.work[1].steps) / float64(ph.requests())
	untraced := float64(ph.scenarios[0])
	m["sweep.alloc_kb_per_scenario"] = float64(ph.work[0].allocBytes) / 1024 / untraced
	m["sweep.allocs_per_scenario"] = float64(ph.work[0].allocs) / untraced
	if used := ph.work[0].totalCPU - ph.work[0].idleCPU; used > 0 {
		m["sweep.gc_cpu_frac"] = ph.work[0].gcCPU / used
	}
	m["trace.overhead_frac"] = 1 - (float64(ph.scenarios[1])/ph.wall[1].Seconds())/(untraced/ph.wall[0].Seconds())
	m["scenario.prepare_us"], m["scenario.hash_us"] = timeScenarioLayer(b.scenarios())
	if bytes, ok := meanEntryBytes(dir); ok {
		m["cachestore.put_bytes"] = bytes
	}
	if err := writeTrace(t, w.name); err != nil {
		return nil, err
	}

	res := ph.result()
	res.Metrics = make(map[string]metric, len(layerUnits))
	for _, l := range layerUnits {
		res.Metrics[l.name] = metric{m[l.name], l.unit}
	}
	fmt.Fprintf(os.Stderr, "%s traced: %d requests, %d spans\n", w.name, ph.requests(), len(spans))
	return res, nil
}

// spanMetrics derives the per-layer metrics the spans support. A metric
// is absent when no span of its layer was recorded.
func spanMetrics(spans []span) map[string]float64 {
	m := map[string]float64{}
	dur := func(s span) float64 { return float64(s.end - s.start) }
	children := map[uint64][]interval{}
	for _, s := range spans {
		switch s.kind {
		case kEval, kGet, kPut:
			children[s.parent] = append(children[s.parent], s.interval())
		}
	}

	var (
		stepNS, steps           = map[string]float64{}, map[string]float64{}
		evalNS, trials, evals   float64
		selfNS, sweptScen       float64
		getNS, gets, hits       float64
		putNS, puts             float64
		coordGets, coordHits    float64
		shardNS, shards, requeu float64
		wire, shipped           float64
		runners                 float64
		submitNS, submits       float64
		grantNS, grants         float64
		submitAt                = map[string]int64{}
		runnerAt                = map[string]int64{}
		resultsFrom, resultsTo  = map[string]int64{}, map[string]int64{}
	)
	for _, s := range spans {
		switch s.kind {
		case kEval:
			stepNS[s.proto] += dur(s)
			steps[s.proto] += float64(s.steps)
			evalNS += dur(s)
			trials += float64(s.trials)
			evals++
		case kSweep:
			selfNS += float64(selfTime(s.interval(), children[s.id]))
			sweptScen += float64(s.n)
			if strings.HasPrefix(s.track, "worker") {
				shipped += float64(s.n)
			}
		case kGet:
			getNS += dur(s)
			gets++
			if s.hit {
				hits++
			}
			if s.track == "coord" {
				coordGets++
				if s.hit {
					coordHits++
				}
			}
		case kPut:
			putNS += dur(s)
			puts++
		case kHTTP:
			wire += float64(s.n)
			if s.shard {
				shardNS += dur(s)
				shards++
				if s.failed {
					requeu++
				}
			}
		case kRunner:
			runners++
			runnerAt[s.request] = s.start
		case kGrant:
			grantNS += dur(s)
			grants++
		case kSubmit:
			submitNS += dur(s)
			submits++
			submitAt[s.request] = s.start
		case kResults:
			if from, ok := resultsFrom[s.request]; !ok || s.start < from {
				resultsFrom[s.request] = s.start
			}
			resultsTo[s.request] = max(resultsTo[s.request], s.end)
		}
	}

	for proto, n := range steps {
		if n > 0 {
			m["protocol.step_ns."+proto] = stepNS[proto] / n
		}
	}
	if evals > 0 {
		m["montecarlo.trials_per_s"] = trials / (evalNS / 1e9)
		m["sweep.eval_ms_per_computed"] = evalNS / 1e6 / evals
	}
	if sweptScen > 0 {
		m["sweep.self_us_per_scenario"] = selfNS / 1e3 / sweptScen
	}
	if gets > 0 {
		m["cachestore.get_us"] = getNS / 1e3 / gets
		m["cachestore.hit_ratio"] = hits / gets
	}
	if puts > 0 {
		m["cachestore.put_us"] = putNS / 1e3 / puts
	}
	if evals > 0 && (puts > 0 || gets > 0) {
		m["cachestore.puts_per_computed"] = puts / evals
	}
	if coordGets > 0 {
		m["cluster.local_hit_frac"] = coordHits / coordGets
	}
	if shards > 0 {
		m["cluster.shard_ms"] = shardNS / 1e6 / shards
		m["cluster.requeues"] = requeu
	}
	if runners > 0 {
		m["cluster.shards_per_job"] = shards / runners
	}
	if shipped > 0 {
		m["cluster.wire_bytes_per_scenario"] = wire / shipped
	}
	if submits > 0 {
		m["jobs.submit_ms"] = submitNS / 1e6 / submits
	}
	if grants > 0 {
		m["jobs.grant_wait_ms"] = grantNS / 1e6 / grants
	}
	var queueNS, queued float64
	for job, at := range runnerAt {
		if sub, ok := submitAt[job]; ok {
			queueNS += float64(at - sub)
			queued++
		}
	}
	if queued > 0 {
		m["jobs.queue_ms"] = queueNS / 1e6 / queued
	}
	var resultsNS float64
	for job, from := range resultsFrom {
		resultsNS += float64(resultsTo[job] - from)
	}
	if len(resultsFrom) > 0 {
		m["jobs.results_ms"] = resultsNS / 1e6 / float64(len(resultsFrom))
	}
	return m
}

// scenarioSink keeps the scenario-layer timing loop from being optimised
// away.
var scenarioSink int

// timeScenarioLayer times, directly on the workload's own specs, the
// per-spec preparation sweep.RunContext does internally and exposes no
// seam for: Validate, Normalized and Hash (prepare), and Hash alone. It
// reports the median over repeated passes, in µs per spec.
func timeScenarioLayer(specs []scenario.Spec) (prepareUS, hashUS float64) {
	var prep, hash []float64
	deadline := time.Now().Add(300 * time.Millisecond)
	for pass := 0; pass < 20 || time.Now().Before(deadline); pass++ {
		start := time.Now()
		for _, s := range specs {
			if s.Validate() == nil {
				n := s.Normalized()
				h, _ := s.Hash()
				scenarioSink += len(h) + len(n.Stakes)
			}
		}
		mid := time.Now()
		for _, s := range specs {
			h, _ := s.Hash()
			scenarioSink += len(h)
		}
		end := time.Now()
		prep = append(prep, float64(mid.Sub(start).Nanoseconds())/1e3/float64(len(specs)))
		hash = append(hash, float64(end.Sub(mid).Nanoseconds())/1e3/float64(len(specs)))
	}
	return median(prep), median(hash)
}

// meanEntryBytes is the mean size of the entries a disk cache holds,
// the bytes one put writes.
func meanEntryBytes(dir string) (float64, bool) {
	var total, n int64
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), ".") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
			n++
		}
		return nil
	})
	if n == 0 {
		return 0, false
	}
	return float64(total) / float64(n), true
}

// writeTrace writes the run's spans, kept in memory until now, to
// .bench_build/work/<workload>.trace.ndjson.
func writeTrace(t *tracer, name string) error {
	return t.writeNDJSON(filepath.Join(workDir, name+".trace.ndjson"))
}
