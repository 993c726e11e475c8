// Package montecarlo runs repeated mining-game trials and aggregates the
// reward-fraction trajectories the paper's figures are built from: sample
// means, percentile bands (Figure 2, Figure 6) and unfair probabilities
// (Figure 3, Figure 5, Table 1).
//
// Trials are deterministic: trial i of a run with seed s always uses
// rng.Stream(s, i), so results are reproducible across machines and
// independent of the worker count.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/game"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Process-global simulation totals on telemetry.Default(): montecarlo
// has no per-run injection point, so trial and block totals aggregate
// per process and surface on any /metrics endpoint that serves the
// default registry. Ticked once per completed trial — negligible next
// to the thousands of protocol steps each trial runs.
var (
	mcTrials = telemetry.Default().Counter("fairness_montecarlo_trials_total")
	mcBlocks = telemetry.Default().Counter("fairness_montecarlo_blocks_total")
)

// Config describes one Monte-Carlo run.
type Config struct {
	// Trials is the number of independent games (the paper uses 10 for
	// real PoW systems, 500 for real PoS systems and 10,000 for
	// simulations).
	Trials int
	// Blocks is the horizon of each game in blocks (epochs for C-PoS).
	Blocks int
	// Checkpoints are the block counts at which λ is recorded. When
	// empty, LinearCheckpoints(Blocks, 50) is used. Values must be
	// strictly increasing in (0, Blocks].
	Checkpoints []int
	// Miner is the index of the tracked miner (the paper's miner A).
	Miner int
	// Seed is the base seed; trial i uses rng.Stream(Seed, i).
	Seed uint64
	// Workers caps the number of concurrent trials; 0 means GOMAXPROCS.
	Workers int
	// GameOptions configure each trial's game.State (e.g. withholding).
	GameOptions []game.Option
	// CheckInvariants runs game.State.CheckInvariants at every
	// checkpoint, turning silent numeric corruption into an error.
	CheckInvariants bool
	// OnTrialDone, when non-nil, is called once per completed trial with
	// the trial index and the trial's final-checkpoint λ. Calls are
	// serialised by the run and arrive in strict trial order; it is how
	// the sweep engine streams per-scenario progress. Under a StopRule
	// only trials up to the deterministic stop point are reported.
	OnTrialDone func(trial int, finalLambda float64)
	// Batch is the number of trials the batched inner loop advances
	// together (structure-of-arrays states, one RNG substream per
	// trial); 0 picks DefaultBatchSize. Between two checkpoints the loop
	// advances each trial of the batch in turn, in one protocol.Run.
	// Batching never changes results: trial i is bit-identical for any
	// batch size and worker count. It is also the granularity of
	// early-stopping looks.
	Batch int
	// Stop, when non-nil, enables adaptive early stopping: the run halts
	// further trials as soon as the unfair-probability verdict is
	// resolved at the rule's confidence (see StopRule), making
	// Result.TrialsRun an output rather than an input. Trials is then
	// the budget, not the commitment.
	Stop *StopRule
}

// Result holds the λ samples of a run: Lambda[c][t] is miner A's reward
// fraction at checkpoint c in trial t.
type Result struct {
	Protocol    string
	Checkpoints []int
	Lambda      [][]float64
	// TrialsBudget is the configured trial count; TrialsRun is how many
	// trials the run actually kept, which is below the budget only when
	// a StopRule resolved the verdict early (EarlyStopped). Lambda
	// columns always match TrialsRun.
	TrialsBudget int
	TrialsRun    int
	EarlyStopped bool
	// StopConfidence is the realised Hoeffding tail of the stopping
	// decision — the error-probability certificate of the early stop
	// (0 for full-budget runs).
	StopConfidence float64
}

// ErrConfig reports an invalid Monte-Carlo configuration.
var ErrConfig = errors.New("montecarlo: invalid config")

// LinearCheckpoints returns k evenly spaced checkpoints ending at n.
func LinearCheckpoints(n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	cps := make([]int, 0, k)
	for i := 1; i <= k; i++ {
		c := i * n / k
		if len(cps) == 0 || c > cps[len(cps)-1] {
			cps = append(cps, c)
		}
	}
	return cps
}

// LogCheckpoints returns at most k logarithmically spaced checkpoints
// from 1 to n, strictly increasing and always ending at n, suitable for
// the paper's log-x axes (Figure 4).
func LogCheckpoints(n, k int) []int {
	if n <= 0 {
		return nil
	}
	if k < 2 {
		return []int{n}
	}
	cps := []int{}
	last := 0
	for i := 0; i < k; i++ {
		f := float64(i) / float64(k-1)
		c := int(math.Pow(float64(n), f))
		if c <= last {
			c = last + 1
		}
		if c >= n {
			break
		}
		cps = append(cps, c)
		last = c
	}
	// Everything collected is < n; terminate with n itself, dropping the
	// highest interior point when float rounding already filled all k
	// slots below n.
	if len(cps) == k {
		cps = cps[:k-1]
	}
	return append(cps, n)
}

// Run executes the Monte-Carlo experiment for one protocol. It is
// RunContext with a background context; use RunContext when the caller
// needs cancellation.
func Run(p protocol.Protocol, initial []float64, cfg Config) (*Result, error) {
	return RunContext(context.Background(), p, initial, cfg)
}

// ctxCheckInterval is how many blocks a trial advances between context
// checks, at most, in one protocol.Run: frequent enough that cancellation
// lands mid-trial within microseconds, rare enough to stay invisible in
// the step loop's profile.
const ctxCheckInterval = 4096

// RunContext executes the Monte-Carlo experiment for one protocol,
// honouring ctx: cancellation stops claiming new trial batches,
// interrupts running batches at the next block boundary, and returns
// ctx.Err(). A cancelled run never returns a partial Result — samples
// are either complete and deterministic or absent.
//
// The first trial error cancels the whole run: no further batches start
// and the error is returned once the in-flight batches drain.
//
// Trials advance in flat batches over a structure-of-arrays arena (one
// recycled game.Batch plus one reseeded RNG per slot per worker), so the
// steady path allocates nothing per trial. Under cfg.Stop the run halts
// at the first batch-ordered prefix that resolves the unfair-probability
// verdict; workers may have speculatively computed batches beyond that
// prefix, but those samples are discarded, keeping the Result a pure
// function of (seed, rule).
func RunContext(ctx context.Context, p protocol.Protocol, initial []float64, cfg Config) (*Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("%w: Trials = %d", ErrConfig, cfg.Trials)
	}
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("%w: Blocks = %d", ErrConfig, cfg.Blocks)
	}
	if cfg.Miner < 0 || cfg.Miner >= len(initial) {
		return nil, fmt.Errorf("%w: Miner = %d with %d miners", ErrConfig, cfg.Miner, len(initial))
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("%w: Batch = %d", ErrConfig, cfg.Batch)
	}
	cps := cfg.Checkpoints
	if len(cps) == 0 {
		cps = LinearCheckpoints(cfg.Blocks, 50)
	}
	prev := 0
	for _, c := range cps {
		if c <= prev || c > cfg.Blocks {
			return nil, fmt.Errorf("%w: checkpoints must be strictly increasing in (0, %d], got %v", ErrConfig, cfg.Blocks, cps)
		}
		prev = c
	}
	var stop *StopRule
	if cfg.Stop != nil {
		s := cfg.Stop.withDefaults()
		if err := s.validate(); err != nil {
			return nil, err
		}
		stop = &s
	}
	// Validate the initial allocation once up front so that worker
	// goroutines cannot fail on it.
	if _, err := game.New(initial, cfg.GameOptions...); err != nil {
		return nil, err
	}

	res := &Result{
		Protocol:     p.Name(),
		Checkpoints:  append([]int(nil), cps...),
		TrialsBudget: cfg.Trials,
	}
	res.Lambda = make([][]float64, len(cps))
	for i := range res.Lambda {
		res.Lambda[i] = make([]float64, cfg.Trials)
	}

	batch := cfg.Batch
	if batch == 0 {
		batch = DefaultBatchSize
	}
	numBatches := (cfg.Trials + batch - 1) / batch
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numBatches {
		workers = numBatches
	}

	// runCtx is cancelled on the first trial error (fail fast) and when
	// an early stop is decided; the caller's ctx distinguishes user
	// cancellation from both.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	fr := newFrontier(&cfg, stop, batch, numBatches, res.Lambda[len(cps)-1])
	var (
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
		nextBatch atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ar, err := newArena(batch, initial, cfg.GameOptions)
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				cancelRun()
				return
			}
			for {
				if runCtx.Err() != nil || fr.stopped.Load() {
					return
				}
				b := int(nextBatch.Add(1)) - 1
				if b >= numBatches {
					return
				}
				start := b * batch
				end := start + batch
				if end > cfg.Trials {
					end = cfg.Trials
				}
				steps, err := runBatch(runCtx, p, &cfg, cps, res, start, end, ar)
				// Block telemetry counts protocol steps actually executed,
				// including the work of failed or interrupted batches.
				mcBlocks.Add(steps)
				if err != nil {
					if ctx.Err() == nil && runCtx.Err() == nil {
						errOnce.Do(func() { firstErr = err })
					}
					cancelRun()
					return
				}
				mcTrials.Add(int64(end - start))
				fr.complete(b)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.TrialsRun = cfg.Trials
	if fr.stopped.Load() {
		res.TrialsRun = fr.stopTrials
		res.EarlyStopped = true
		res.StopConfidence = fr.stopConf
		for i := range res.Lambda {
			res.Lambda[i] = res.Lambda[i][:fr.stopTrials]
		}
	}
	return res, nil
}

// MeanSeries returns the per-checkpoint sample mean of λ.
func (r *Result) MeanSeries() []float64 {
	out := make([]float64, len(r.Checkpoints))
	for i, xs := range r.Lambda {
		out[i] = stats.Mean(xs)
	}
	return out
}

// PercentileSeries returns the per-checkpoint p-th percentile of λ.
func (r *Result) PercentileSeries(p float64) []float64 {
	out := make([]float64, len(r.Checkpoints))
	for i, xs := range r.Lambda {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		out[i] = stats.PercentileSorted(sorted, p)
	}
	return out
}

// UnfairProbSeries returns, per checkpoint, the fraction of trials with λ
// outside the fair area [(1−ε)a, (1+ε)a] — the paper's unfair probability.
func (r *Result) UnfairProbSeries(a, eps float64) []float64 {
	lo, hi := (1-eps)*a, (1+eps)*a
	out := make([]float64, len(r.Checkpoints))
	for i, xs := range r.Lambda {
		out[i] = 1 - stats.FractionWithin(xs, lo, hi)
	}
	return out
}

// FinalSamples returns the λ samples at the last checkpoint.
func (r *Result) FinalSamples() []float64 {
	if len(r.Lambda) == 0 {
		return nil
	}
	return r.Lambda[len(r.Lambda)-1]
}

// FinalSummary returns summary statistics at the last checkpoint.
func (r *Result) FinalSummary() stats.Summary {
	return stats.Summarize(r.FinalSamples())
}

// CheckpointsAsFloat returns the checkpoints as float64 x-coordinates.
func (r *Result) CheckpointsAsFloat() []float64 {
	out := make([]float64, len(r.Checkpoints))
	for i, c := range r.Checkpoints {
		out[i] = float64(c)
	}
	return out
}

// ConvergenceBlock returns the first checkpoint from which the unfair
// probability stays at or below delta through the end of the run, or -1 if
// fairness is never durably reached (Table 1's "Cvg. Time" column).
func (r *Result) ConvergenceBlock(a, eps, delta float64) int {
	unfair := r.UnfairProbSeries(a, eps)
	conv := -1
	for i := range unfair {
		if unfair[i] <= delta {
			if conv == -1 {
				conv = r.Checkpoints[i]
			}
		} else {
			conv = -1
		}
	}
	return conv
}
