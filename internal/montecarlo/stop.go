package montecarlo

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/game"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// Defaults of the batched trial core and its stopping rule.
const (
	// DefaultBatchSize is the number of trials the inner loop advances
	// together when Config.Batch is 0. Batches are also the granularity
	// of work claiming and of early-stopping looks.
	DefaultBatchSize = 8
	// DefaultStopConfidence is the total error probability budget of a
	// StopRule when Confidence is 0: across all looks, the probability
	// that an early stop certifies the wrong side of Delta.
	DefaultStopConfidence = 1e-3
	// DefaultMinTrials is the smallest completed-trial prefix a StopRule
	// evaluates when MinTrials is 0.
	DefaultMinTrials = 32
)

// StopRule configures adaptive early stopping: the run halts once the
// unfair-probability verdict — is P(λ outside the fair area
// [(1−Eps)·Share, (1+Eps)·Share]) above or below Delta? — is resolved at
// the requested confidence. The test is a Hoeffding bound on the
// observed unfair fraction p̂ over the completed-trial prefix, with a
// per-look budget Confidence/(j·(j+1)) so the union over any number of
// looks stays below Confidence.
//
// Stopping decisions are evaluated only on contiguous batch-ordered
// prefixes of completed trials, so the executed trial count — and every
// sample the Result keeps — is a pure function of (seed, rule),
// independent of worker count and scheduling.
type StopRule struct {
	// Share is the tracked miner's resource share a, defining the fair
	// area together with Eps.
	Share float64
	// Eps is the robust-fairness ε: the fair area is [(1−ε)a, (1+ε)a].
	Eps float64
	// Delta is the unfair-probability threshold δ the rule resolves
	// p_unfair against.
	Delta float64
	// Confidence is the total error-probability budget across all looks
	// (0 = DefaultStopConfidence).
	Confidence float64
	// MinTrials is the smallest prefix the rule evaluates (0 =
	// DefaultMinTrials).
	MinTrials int
}

// withDefaults resolves the zero-value knobs.
func (s StopRule) withDefaults() StopRule {
	if s.Confidence == 0 {
		s.Confidence = DefaultStopConfidence
	}
	if s.MinTrials == 0 {
		s.MinTrials = DefaultMinTrials
	}
	return s
}

// validate rejects unusable rules (after withDefaults).
func (s StopRule) validate() error {
	if !(s.Share > 0 && s.Share < 1) {
		return fmt.Errorf("%w: Stop.Share = %v, need 0 < a < 1", ErrConfig, s.Share)
	}
	if !(s.Eps > 0) {
		return fmt.Errorf("%w: Stop.Eps = %v, need > 0", ErrConfig, s.Eps)
	}
	if !(s.Delta > 0 && s.Delta < 1) {
		return fmt.Errorf("%w: Stop.Delta = %v, need 0 < delta < 1", ErrConfig, s.Delta)
	}
	if !(s.Confidence > 0 && s.Confidence < 1) {
		return fmt.Errorf("%w: Stop.Confidence = %v, need 0 < confidence < 1", ErrConfig, s.Confidence)
	}
	if s.MinTrials < 1 {
		return fmt.Errorf("%w: Stop.MinTrials = %d, need >= 1", ErrConfig, s.MinTrials)
	}
	return nil
}

// arena is one worker's recycled trial state: a structure-of-arrays
// game batch plus one RNG per slot, reseeded per batch with SeedStream.
// Nothing in here is allocated on the steady path.
type arena struct {
	games *game.Batch
	rngs  []rng.Rand
}

func newArena(n int, initial []float64, opts []game.Option) (*arena, error) {
	b, err := game.NewBatch(n, initial, opts...)
	if err != nil {
		return nil, err
	}
	return &arena{games: b, rngs: make([]rng.Rand, n)}, nil
}

// runBatch advances trials [start, end) to the last checkpoint,
// recording λ per checkpoint into res. Trial start+t uses
// rng.Stream(seed, start+t) semantics exactly, so results are
// bit-identical to the historical one-trial-at-a-time loop for any
// batch size. Each trial moves from checkpoint to checkpoint in one
// protocol.Run, which plays a two-miner game of the protocols that have
// their own loop with its state in registers; segments end at multiples
// of ctxCheckInterval too, where the context is checked. The returned
// step count is the number of protocol steps actually executed —
// reported even alongside an error, so block telemetry reflects real
// work.
func runBatch(ctx context.Context, p protocol.Protocol, cfg *Config, cps []int, res *Result, start, end int, ar *arena) (steps int64, err error) {
	n := end - start
	for t := 0; t < n; t++ {
		ar.games.State(t).Reset()
		ar.rngs[t].SeedStream(cfg.Seed, start+t)
	}
	done := 0 // blocks every trial of the batch has played
	for c, cp := range cps {
		for done < cp {
			if done > 0 && done%ctxCheckInterval == 0 && ctx.Err() != nil {
				return steps, ctx.Err()
			}
			seg := min(cp, (done/ctxCheckInterval+1)*ctxCheckInterval) - done
			for t := 0; t < n; t++ {
				protocol.Run(p, ar.games.State(t), &ar.rngs[t], seg)
			}
			steps += int64(n * seg)
			done += seg
		}
		for t := 0; t < n; t++ {
			st := ar.games.State(t)
			if cfg.CheckInvariants {
				if ierr := st.CheckInvariants(); ierr != nil {
					return steps, fmt.Errorf("montecarlo: trial %d block %d: %w", start+t, cp, ierr)
				}
			}
			res.Lambda[c][start+t] = st.Lambda(cfg.Miner)
		}
	}
	return steps, nil
}

// frontier tracks the contiguous prefix of completed batches in batch
// order. Everything order-sensitive happens during prefix advance under
// one mutex: OnTrialDone hooks fire in strict trial order, and the
// stopping rule sees each batch-aligned prefix exactly once — so the
// stop point is deterministic no matter how many workers computed the
// batches or in what order they finished.
type frontier struct {
	mu          sync.Mutex
	batch       int
	trialsTotal int
	numBatches  int
	completed   []bool
	front       int
	trials      int
	unfair      int
	look        int
	stop        *StopRule
	lo, hi      float64
	hook        func(trial int, finalLambda float64)
	finalRow    []float64

	stopped    atomic.Bool
	stopTrials int
	stopConf   float64
}

func newFrontier(cfg *Config, stop *StopRule, batch, numBatches int, finalRow []float64) *frontier {
	f := &frontier{
		batch:       batch,
		trialsTotal: cfg.Trials,
		numBatches:  numBatches,
		completed:   make([]bool, numBatches),
		stop:        stop,
		hook:        cfg.OnTrialDone,
		finalRow:    finalRow,
	}
	if stop != nil {
		f.lo, f.hi = (1-stop.Eps)*stop.Share, (1+stop.Eps)*stop.Share
	}
	return f
}

// complete marks batch b done and advances the frontier over every
// contiguous completed batch, firing hooks and evaluating the stopping
// rule at each batch boundary.
func (f *frontier) complete(b int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.completed[b] = true
	for f.front < f.numBatches && f.completed[f.front] && !f.stopped.Load() {
		start := f.front * f.batch
		end := start + f.batch
		if end > f.trialsTotal {
			end = f.trialsTotal
		}
		for t := start; t < end; t++ {
			lam := f.finalRow[t]
			if f.hook != nil {
				f.hook(t, lam)
			}
			// NaN λ fails the range test and counts as unfair, matching
			// UnfairProbSeries / stats.FractionWithin.
			if f.stop != nil && !(lam >= f.lo && lam <= f.hi) {
				f.unfair++
			}
		}
		f.trials = end
		f.front++
		if f.stop != nil && f.trials >= f.stop.MinTrials && f.trials < f.trialsTotal {
			f.look++
			alpha := f.stop.Confidence / float64(f.look*(f.look+1))
			phat := float64(f.unfair) / float64(f.trials)
			margin := phat - f.stop.Delta
			if margin < 0 {
				margin = -margin
			}
			// For a mean deviation of `margin` over n bounded samples the
			// Hoeffding argument is gamma = n·margin over denominator n:
			// 2·exp(−2·n·margin²).
			tail := dist.HoeffdingTail(float64(f.trials)*margin, float64(f.trials))
			if tail <= alpha {
				f.stopTrials = f.trials
				f.stopConf = tail
				f.stopped.Store(true)
			}
		}
	}
}
