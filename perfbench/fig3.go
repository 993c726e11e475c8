package main

import (
	"context"
	"fmt"

	fairness "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/montecarlo"
	"repro/internal/scenario"
)

// Figure 3 at a reduced scale: every request still runs all 16 cells
// exhaustively, so the kernel does nearly all the work.
const fig3Trials, fig3Blocks = 60, 400

// fig3Bench is the fig3-cold workload: Figure 3's protocol × share grid
// through Engine.Sweep with the engine's defaults (exhaustive
// Monte-Carlo, no cache, GOMAXPROCS scenario workers), the path of
// `fairsweep run` without a cache.
type fig3Bench struct {
	eng   *fairness.Engine
	specs []scenario.Spec
	want  []core.Verdict
	// traced is an engine whose evaluator records spans, with t the
	// tracer and tw the trial parallelism the runner would pick; nil in
	// an untraced run.
	traced *fairness.Engine
	t      *tracer
	tw     int
}

func fig3Specs(seed uint64) []scenario.Spec {
	return experiments.Fig3SweepSpecs(experiments.Config{Trials: fig3Trials, Blocks: fig3Blocks, Seed: seed})
}

func setupFig3(_ string, seed uint64, t *tracer) (bench, error) {
	specs := fig3Specs(seed)
	want, err := fig3Reference(specs)
	if err != nil {
		return nil, err
	}
	b := &fig3Bench{eng: fairness.NewEngine(), specs: specs, want: want}
	if t != nil {
		b.traced = fairness.NewEngine(fairness.WithBackend(newTracedEvaluator(t, "local")))
		b.t, b.tw = t, runnerTrialWorkers(0, specs)
	}
	return b, nil
}

// fig3Reference computes each cell's verdict the way the paper's
// exhibit does, without the sweep engine or an evaluator: the verdict
// core.Params.Assess gives on montecarlo.Run's final samples.
func fig3Reference(specs []scenario.Spec) ([]core.Verdict, error) {
	want := make([]core.Verdict, len(specs))
	for i, s := range specs {
		n := s.Normalized()
		p, err := n.Build()
		if err != nil {
			return nil, err
		}
		res, err := montecarlo.Run(p, n.Stakes, montecarlo.Config{
			Trials: n.Trials, Blocks: n.Blocks, Checkpoints: n.Checkpoints, Miner: n.Miner, Seed: n.Seed,
		})
		if err != nil {
			return nil, err
		}
		want[i] = core.Params{Eps: n.Eps, Delta: n.Delta}.Assess(p.Name(), res.FinalSamples(), n.TrackedShare())
	}
	return want, nil
}

func (b *fig3Bench) do(ctx context.Context, _ int, id string) (reply, error) {
	rep, err := b.sweep(ctx, id)
	if err != nil {
		return reply{}, err
	}
	got := make([]core.Verdict, len(rep.Outcomes))
	for i, o := range rep.Outcomes {
		got[i] = o.Verdict
	}
	return reply{scenarios: len(got), check: func() error {
		if len(got) != len(b.want) {
			return fmt.Errorf("fig3-cold: %d outcomes, want %d", len(got), len(b.want))
		}
		for i := range got {
			if got[i] != b.want[i] {
				return fmt.Errorf("fig3-cold: cell %s: verdict %+v, reference %+v", b.specs[i].Name, got[i], b.want[i])
			}
		}
		return nil
	}}, nil
}

// sweep is one Engine.Sweep request; while the tracer is on it runs on
// the traced engine inside a span for the sweep call.
func (b *fig3Bench) sweep(ctx context.Context, id string) (*fairness.SweepReport, error) {
	if !b.t.enabled() {
		return b.eng.Sweep(ctx, b.specs)
	}
	s := b.t.open(kSweep, "local", id, len(b.specs))
	rep, err := b.traced.Sweep(withRef(ctx, ref{id: s.id, request: id, trialWorkers: b.tw}), b.specs)
	b.t.close(s)
	return rep, err
}

func (b *fig3Bench) scenarios() []scenario.Spec { return b.specs }

func (b *fig3Bench) close() {}
