package montecarlo

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/game"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// corruptingProtocol poisons the game state on every step and counts how
// many steps actually ran, so tests can assert the run aborted instead
// of burning through the whole trial budget.
type corruptingProtocol struct {
	steps *atomic.Int64
}

func (p corruptingProtocol) Name() string { return "corrupt" }

func (p corruptingProtocol) Step(st *game.State, r *rng.Rand) {
	p.steps.Add(1)
	st.Stakes[0] = math.NaN()
}

// TestRunContextFailsFastOnTrialError is the regression test for the
// keep-computing-after-failure bug: a trial error must cancel the rest
// of the run, not leave the remaining trials grinding to completion.
func TestRunContextFailsFastOnTrialError(t *testing.T) {
	var steps atomic.Int64
	const trials = 10000
	res, err := RunContext(context.Background(), corruptingProtocol{&steps}, game.TwoMiner(0.2), Config{
		Trials:          trials,
		Blocks:          1,
		Seed:            7,
		Workers:         4,
		CheckInvariants: true,
	})
	if err == nil {
		t.Fatal("corrupted run returned nil error")
	}
	if errors.Is(err, ErrConfig) {
		t.Fatalf("trial failure misreported as config error: %v", err)
	}
	if !strings.Contains(err.Error(), "trial") {
		t.Errorf("error %q does not identify the failing trial", err)
	}
	if res != nil {
		t.Errorf("failed run returned non-nil result")
	}
	// Every trial corrupts at its first block, so a fail-fast run stops
	// after at most a few in-flight batches — nowhere near the budget.
	if got := steps.Load(); got >= trials/2 {
		t.Errorf("run executed %d steps after first failure, want far fewer than %d", got, trials)
	}
}

// TestLogCheckpointsProperty pins the contract of the checkpoint
// schedule over a sweep of sizes: at most k checkpoints (the historical
// bug returned k+1), strictly increasing, within [1, n], ending at n.
func TestLogCheckpointsProperty(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 7, 10, 16, 33, 100, 1000, 4096, 5000, 65536} {
		for k := 0; k <= 12; k++ {
			cps := LogCheckpoints(n, k)
			max := k
			if max < 1 {
				max = 1
			}
			if len(cps) > max {
				t.Fatalf("LogCheckpoints(%d, %d) returned %d checkpoints, want <= %d: %v", n, k, len(cps), max, cps)
			}
			if cps[len(cps)-1] != n {
				t.Fatalf("LogCheckpoints(%d, %d) ends at %d, want %d", n, k, cps[len(cps)-1], n)
			}
			prev := 0
			for _, c := range cps {
				if c <= prev || c > n {
					t.Fatalf("LogCheckpoints(%d, %d) not strictly increasing in [1,%d]: %v", n, k, n, cps)
				}
				prev = c
			}
		}
	}
}

// TestAdaptiveStopsEarlyAndDeterministic covers the early-stopping core:
// a decisive scenario (tiny ε makes nearly every trial unfair) stops at
// the minimum prefix, the stop point is identical across worker counts,
// and the retained samples are bit-identical to the same prefix of an
// exhaustive run.
func TestAdaptiveStopsEarlyAndDeterministic(t *testing.T) {
	p := protocol.NewPoW(0.01)
	initial := game.TwoMiner(0.2)
	stop := &StopRule{Share: 0.2, Eps: 0.02, Delta: 0.1, Confidence: 1e-3, MinTrials: 8}
	cfg := Config{Trials: 5000, Blocks: 50, Seed: 3, Batch: 8, Stop: stop}

	cfg.Workers = 1
	one, err := RunContext(context.Background(), p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	many, err := RunContext(context.Background(), p, initial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !one.EarlyStopped || one.TrialsRun >= one.TrialsBudget {
		t.Fatalf("decisive scenario did not stop early: ran %d of %d", one.TrialsRun, one.TrialsBudget)
	}
	if one.TrialsRun != many.TrialsRun || one.EarlyStopped != many.EarlyStopped {
		t.Fatalf("stop point depends on workers: 1 worker ran %d, 8 workers ran %d", one.TrialsRun, many.TrialsRun)
	}
	if one.StopConfidence <= 0 || one.StopConfidence > stop.Confidence {
		t.Errorf("stop confidence = %v, want in (0, %v]", one.StopConfidence, stop.Confidence)
	}
	for i := range one.Lambda {
		if len(one.Lambda[i]) != one.TrialsRun {
			t.Fatalf("checkpoint %d keeps %d samples, want TrialsRun = %d", i, len(one.Lambda[i]), one.TrialsRun)
		}
		for tr := range one.Lambda[i] {
			if one.Lambda[i][tr] != many.Lambda[i][tr] {
				t.Fatalf("λ[%d][%d] differs across worker counts", i, tr)
			}
		}
	}

	// The retained prefix must be the exhaustive run's prefix, bit for
	// bit: early stopping trims work, it never changes a sample.
	full := cfg
	full.Stop = nil
	full.Workers = 0
	exhaustive, err := RunContext(context.Background(), p, initial, full)
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.EarlyStopped || exhaustive.TrialsRun != full.Trials {
		t.Fatalf("exhaustive run misreported: ran %d, stopped %v", exhaustive.TrialsRun, exhaustive.EarlyStopped)
	}
	for i := range one.Lambda {
		for tr := range one.Lambda[i] {
			if one.Lambda[i][tr] != exhaustive.Lambda[i][tr] {
				t.Fatalf("adaptive λ[%d][%d] differs from the exhaustive prefix", i, tr)
			}
		}
	}
}

// TestAdaptiveRunsFullBudgetWhenUndecided: an unreachable confidence
// target means the rule never fires and the run degrades gracefully to
// the exhaustive semantics.
func TestAdaptiveRunsFullBudgetWhenUndecided(t *testing.T) {
	res, err := RunContext(context.Background(), protocol.NewPoW(0.01), game.TwoMiner(0.2), Config{
		Trials: 64, Blocks: 50, Seed: 3, Batch: 8, Workers: 4,
		Stop: &StopRule{Share: 0.2, Eps: 0.02, Delta: 0.1, Confidence: 1e-300, MinTrials: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EarlyStopped {
		t.Error("run stopped early despite an unreachable confidence target")
	}
	if res.TrialsRun != 64 || res.TrialsBudget != 64 {
		t.Errorf("TrialsRun/Budget = %d/%d, want 64/64", res.TrialsRun, res.TrialsBudget)
	}
	if got := len(res.FinalSamples()); got != 64 {
		t.Errorf("kept %d samples, want 64", got)
	}
}

// TestStopRuleValidation rejects unusable stopping rules through the
// standard ErrConfig path.
func TestStopRuleValidation(t *testing.T) {
	bad := []*StopRule{
		{Share: 0, Eps: 0.1, Delta: 0.1},
		{Share: 1.2, Eps: 0.1, Delta: 0.1},
		{Share: 0.2, Eps: 0, Delta: 0.1},
		{Share: 0.2, Eps: 0.1, Delta: 0},
		{Share: 0.2, Eps: 0.1, Delta: 1},
		{Share: 0.2, Eps: 0.1, Delta: 0.1, Confidence: 2},
		{Share: 0.2, Eps: 0.1, Delta: 0.1, MinTrials: -1},
	}
	for i, s := range bad {
		_, err := Run(protocol.NewPoW(0.01), game.TwoMiner(0.2), Config{
			Trials: 16, Blocks: 10, Seed: 1, Stop: s,
		})
		if !errors.Is(err, ErrConfig) {
			t.Errorf("bad stop rule %d: err = %v, want ErrConfig", i, err)
		}
	}
	if _, err := Run(protocol.NewPoW(0.01), game.TwoMiner(0.2), Config{
		Trials: 16, Blocks: 10, Seed: 1, Batch: -2,
	}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative batch: err = %v, want ErrConfig", err)
	}
}

// stepOnly exposes only a protocol's Name and Step, so protocol.Run
// steps it block by block instead of running the protocol's own loop.
type stepOnly struct{ p protocol.Protocol }

func (s stepOnly) Name() string                     { return s.p.Name() }
func (s stepOnly) Step(st *game.State, r *rng.Rand) { s.p.Step(st, r) }

// TestSegmentsMatchBlockByBlock runs each protocol with a loop of its own
// over checkpoints around ctxCheckInterval, where runBatch cuts its
// segments, and again block by block through stepOnly: every λ must
// match bit for bit, the block counter must advance by the same count,
// and both must match trials stepped one block at a time outside the
// harness.
func TestSegmentsMatchBlockByBlock(t *testing.T) {
	cps := []int{1, ctxCheckInterval - 1, ctxCheckInterval, ctxCheckInterval + 1, 9000}
	cfg := Config{Trials: 7, Batch: 3, Blocks: 9000, Checkpoints: cps, Seed: 11}
	initial := game.TwoMiner(0.3)
	for _, p := range []protocol.Protocol{
		protocol.NewPoW(0.01), protocol.NewMLPoS(0.01), protocol.NewSLPoS(0.01),
		protocol.NewCPoS(0.01, 0.1, 32),
	} {
		run := func(p protocol.Protocol) (*Result, int64) {
			before := mcBlocks.Value()
			res, err := Run(p, initial, cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			return res, mcBlocks.Value() - before
		}
		got, gotBlocks := run(p)
		want, wantBlocks := run(stepOnly{p})
		if gotBlocks != wantBlocks || gotBlocks != int64(cfg.Trials*cfg.Blocks) {
			t.Errorf("%s: blocks counter advanced %d, block by block %d, want %d",
				p.Name(), gotBlocks, wantBlocks, cfg.Trials*cfg.Blocks)
		}
		for tr := 0; tr < cfg.Trials; tr++ {
			st, r := game.MustNew(initial), rng.Stream(cfg.Seed, tr)
			for c, cp := range cps {
				for st.Blocks < cp {
					p.Step(st, r)
				}
				ref := math.Float64bits(st.Lambda(cfg.Miner))
				if g, w := got.Lambda[c][tr], want.Lambda[c][tr]; math.Float64bits(g) != ref || math.Float64bits(w) != ref {
					t.Fatalf("%s: checkpoint %d, trial %d: λ %v, block by block %v, stepped outside the harness %v",
						p.Name(), cp, tr, g, w, st.Lambda(cfg.Miner))
				}
			}
		}
	}
}
