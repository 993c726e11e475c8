package protocol

import (
	"repro/internal/game"
	"repro/internal/rng"
)

// PoW is the Proof-of-Work incentive model (Section 2.1).
//
// Each miner's next-block arrival time is exponential with rate equal to
// her hash power, so the winner of each block is drawn with probability
// proportional to hash power — independent of all previous outcomes.
// Rewards are paid in currency that conveys no future mining power, so the
// competing resource never changes. The model therefore satisfies both
// expectational fairness (Theorem 3.2) and, for large n, (ε,δ)-robust
// fairness (Theorem 4.2).
type PoW struct {
	// W is the block reward.
	W float64
}

// NewPoW returns the PoW model with block reward w. It panics if w <= 0.
func NewPoW(w float64) PoW {
	validateReward("PoW", w)
	return PoW{W: w}
}

// Name implements Protocol.
func (PoW) Name() string { return "PoW" }

// Step selects the winner of the exponential race — equivalently a
// categorical draw over hash powers — and credits the block reward. Hash
// power (st.Stakes) is never modified.
func (p PoW) Step(st *game.State, r *rng.Rand) {
	winner := r.Categorical(st.Stakes)
	st.Credit(winner, p.W, 0)
	st.EndBlock()
}

// advance plays a two-miner game's n blocks as one Tally of n draws and
// one CreditN per miner. Hash power never moves, so the n draws are n
// Categoricals over the same weights, which Cumulate checks once with
// Categorical's checks and panics; and each miner's wins add W to her
// reward alone, which CreditN does bit for bit.
func (p PoW) advance(st *game.State, r *rng.Rand, n int) {
	if n <= 0 || !twoMiners(st) {
		steps(p, st, r, n)
		return
	}
	var sums [2]float64
	var wins [2]int
	c := rng.Cumulate(sums[:], st.Stakes)
	r.Tally(&c, n, wins[:])
	st.CreditN(0, wins[0], p.W, 0)
	st.CreditN(1, wins[1], p.W, 0)
	st.Blocks += n
}
