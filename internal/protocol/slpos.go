package protocol

import (
	"math"

	"repro/internal/game"
	"repro/internal/rng"
)

// SLPoS is the single-lottery Proof-of-Stake incentive model (Section
// 2.3), deployed by NXT.
//
// Each miner gets exactly one lottery ticket per block: a waiting time
// time_i = basetime · Hash(pk_i)/stake_i, and the smallest waiting time
// wins. Because Hash/2^256 is uniform — not exponential — the win
// probability is NOT proportional to stake: in the two-miner game the
// smaller miner A wins with probability only a/(2b) (Equation 1). The
// reward fraction therefore drifts toward the richer miner and, by the
// stochastic-approximation argument of Theorem 4.9, converges to 0 or 1
// almost surely: the mining game ends in monopoly. SL-PoS satisfies
// neither expectational nor robust fairness.
type SLPoS struct {
	// W is the block reward.
	W float64
}

// NewSLPoS returns the SL-PoS model with block reward w. It panics if
// w <= 0.
func NewSLPoS(w float64) SLPoS {
	validateReward("SL-PoS", w)
	return SLPoS{W: w}
}

// Name implements Protocol.
func (SLPoS) Name() string { return "SL-PoS" }

// Step draws each miner's uniform hash ticket, divides by stake and
// rewards the earliest candidate block. The basetime constant cancels in
// the comparison and is omitted.
func (p SLPoS) Step(st *game.State, r *rng.Rand) {
	winner := -1
	best := math.Inf(1)
	for i, s := range st.Stakes {
		if s <= 0 {
			continue // a stakeless miner never produces a valid block
		}
		t := r.Float64() / s
		if t < best {
			best = t
			winner = i
		}
	}
	if winner < 0 {
		st.EndBlock()
		return
	}
	st.Credit(winner, p.W, p.W)
	st.EndBlock()
}

// advance plays a two-miner game's blocks with both stakes and the
// generator in locals, transcribing Step: a miner whose stake is not
// ≤ 0 (NaN included) draws her ticket, and the earlier finite ticket
// wins, miner 0 on a tie; W being positive, Credit adds it to the
// winner's stake. Each miner's reward only ever gains W, so it is
// credited once at the end, by game.AddN, from her count of wins.
func (p SLPoS) advance(st *game.State, r *rng.Rand, n int) {
	if n <= 0 || !twoMiners(st) || !(p.W > 0) {
		steps(p, st, r, n)
		return
	}
	s0, s1 := st.Stakes[0], st.Stakes[1]
	g := r.Gen()
	wins0, wins1 := 0, 0
	for k := n; k > 0; k-- {
		winner := -1
		best := math.Inf(1)
		var u float64
		if !(s0 <= 0) {
			g, u = g.Float64()
			if t := u / s0; t < best {
				best, winner = t, 0
			}
		}
		if !(s1 <= 0) {
			g, u = g.Float64()
			if t := u / s1; t < best {
				winner = 1
			}
		}
		switch winner {
		case 0:
			s0 += p.W
			wins0++
		case 1:
			s1 += p.W
			wins1++
		}
	}
	r.SetGen(g)
	st.Stakes[0], st.Stakes[1] = s0, s1
	st.Rewards[0], _ = game.AddN(st.Rewards[0], p.W, wins0)
	st.Rewards[1], _ = game.AddN(st.Rewards[1], p.W, wins1)
	st.Blocks += n
}

// FSLPoS is the paper's fairness treatment for SL-PoS (Section 6.2):
// replace the linear time function with the inverse-transform
// time_i = −ln(1 − Hash_i/2^256)/stake_i, turning the lottery into an
// exponential race so the win probability becomes exactly proportional to
// stake. FSL-PoS restores expectational fairness; robust fairness still
// requires small rewards or withholding (Section 6.3, Figure 6).
type FSLPoS struct {
	// W is the block reward.
	W float64
}

// NewFSLPoS returns the fair-single-lottery model with block reward w. It
// panics if w <= 0.
func NewFSLPoS(w float64) FSLPoS {
	validateReward("FSL-PoS", w)
	return FSLPoS{W: w}
}

// Name implements Protocol.
func (FSLPoS) Name() string { return "FSL-PoS" }

// Step plays the corrected lottery: each miner's waiting time is an
// exponential draw with rate equal to her stake (the inverse transform of
// the uniform hash), and the earliest wins.
func (p FSLPoS) Step(st *game.State, r *rng.Rand) {
	winner := -1
	best := math.Inf(1)
	for i, s := range st.Stakes {
		if s <= 0 {
			continue
		}
		t := r.Exponential(s)
		if t < best {
			best = t
			winner = i
		}
	}
	if winner < 0 {
		st.EndBlock()
		return
	}
	st.Credit(winner, p.W, p.W)
	st.EndBlock()
}
