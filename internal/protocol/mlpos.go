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

// advance plays a two-miner game's blocks with both stakes and the
// generator in locals: one inlined draw and one addition per block.
//
// Each block is Categorical over the two stakes: with u = Float64()·
// (s0 + s1), miner 1 wins when !(u < s0) and s1 > 0 (see rng.Gen.Ones).
// Categorical's checks (both stakes ≥ 0, a positive total) are made once:
// adding a positive W to one stake keeps them true. Each miner's reward
// only ever gains W, so it is credited once at the end, by game.AddN,
// from her count of wins.
func (p MLPoS) advance(st *game.State, r *rng.Rand, n int) {
	if n <= 0 || !twoMiners(st) || !(p.W > 0) || !drawable(st.Stakes[0], st.Stakes[1]) {
		steps(p, st, r, n)
		return
	}
	s0, s1 := st.Stakes[0], st.Stakes[1]
	g := r.Gen()
	ones := 0
	for k := n; k > 0; k-- {
		var u float64
		g, u = g.Float64()
		if !(u*(s0+s1) < s0) && s1 > 0 {
			s1 += p.W
			ones++
		} else {
			s0 += p.W
		}
	}
	r.SetGen(g)
	st.Stakes[0], st.Stakes[1] = s0, s1
	st.Rewards[0], _ = game.AddN(st.Rewards[0], p.W, n-ones)
	st.Rewards[1], _ = game.AddN(st.Rewards[1], p.W, ones)
	st.Blocks += n
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
