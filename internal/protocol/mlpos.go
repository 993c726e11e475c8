package protocol

import (
	"repro/internal/game"
	"repro/internal/rng"
)

// MLPoS is the multi-lottery Proof-of-Stake incentive model (Section 2.2),
// deployed by Qtum and Blackcoin.
//
// Miners retry a staking kernel at successive timestamps; the per-trial
// success probability is proportional to currently possessed stake, so the
// first success is a geometric race and — for the realistic regime where
// per-timestamp probabilities are small — the winner of each block is
// drawn with probability proportional to current stake. The block reward
// joins the winner's stake, making the process a classical Pólya urn: the
// reward fraction λ converges almost surely to Beta(a/w, b/w)
// (Section 4.3). ML-PoS is expectationally fair (Theorem 3.3) but needs
// 1/n + w ≤ 2a²ε²/ln(2/δ) for (ε,δ)-robust fairness (Theorem 4.3).
type MLPoS struct {
	// W is the block reward, in units of the (normalised) initial stake
	// circulation.
	W float64
}

// NewMLPoS returns the ML-PoS model with block reward w. It panics if
// w <= 0.
func NewMLPoS(w float64) MLPoS {
	validateReward("ML-PoS", w)
	return MLPoS{W: w}
}

// Name implements Protocol.
func (MLPoS) Name() string { return "ML-PoS" }

// Step draws the block winner proportionally to current stake and stakes
// the reward.
func (p MLPoS) Step(st *game.State, r *rng.Rand) {
	winner := r.Categorical(st.Stakes)
	st.Credit(winner, p.W, p.W)
	st.EndBlock()
}

// MLPoSKernel is the exact multi-lottery mechanism: every miner checks one
// kernel per timestamp with success probability PerStakeProb × stake, and
// the earliest success (ties split uniformly) proposes the block.
//
// MLPoS above is the small-probability limit of this model; MLPoSKernel
// keeps the timestamp race explicit so experiments can quantify the
// deviation when per-timestamp probabilities are not negligible (the
// p_A·p_B tie term in Section 2.2).
type MLPoSKernel struct {
	// W is the block reward.
	W float64
	// PerStakeProb is the per-timestamp kernel success probability of one
	// unit of stake; Qtum's target spacing makes stake-weighted values of
	// order 1/1200 per miner.
	PerStakeProb float64
}

// NewMLPoSKernel returns the explicit-timestamp ML-PoS model. It panics
// if w <= 0 or perStakeProb is not in (0, 1].
func NewMLPoSKernel(w, perStakeProb float64) MLPoSKernel {
	validateReward("ML-PoS kernel", w)
	if !(perStakeProb > 0 && perStakeProb <= 1) {
		panic("protocol: ML-PoS kernel needs perStakeProb in (0, 1]")
	}
	return MLPoSKernel{W: w, PerStakeProb: perStakeProb}
}

// Name implements Protocol.
func (MLPoSKernel) Name() string { return "ML-PoS-kernel" }

// Step plays the timestamp race: each miner's first-success timestamp is
// geometric in her stake-scaled probability; the earliest wins, with
// uniform tie-breaking (the 50% tie rule of Section 2.2 generalised to m
// miners).
func (p MLPoSKernel) Step(st *game.State, r *rng.Rand) {
	best := int64(-1)
	var buf [stackMiners]int
	winners := scratch(&buf, st.NumMiners())[:0]
	for i, s := range st.Stakes {
		prob := p.PerStakeProb * s
		if prob <= 0 {
			continue
		}
		if prob > 1 {
			prob = 1
		}
		t := r.Geometric(prob)
		switch {
		case best == -1 || t < best:
			best = t
			winners = winners[:0]
			winners = append(winners, i)
		case t == best:
			winners = append(winners, i)
		}
	}
	if len(winners) == 0 {
		// No miner can ever succeed (all stakes zero); leave rewards
		// unchanged but still advance the clock.
		st.EndBlock()
		return
	}
	winner := winners[0]
	if len(winners) > 1 {
		winner = winners[r.Intn(len(winners))]
	}
	st.Credit(winner, p.W, p.W)
	st.EndBlock()
}
