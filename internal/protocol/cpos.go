package protocol

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/rng"
)

// CPoS is the compound Proof-of-Stake incentive model of Ethereum 2.0
// (Section 2.4), generalised as in the paper.
//
// Each epoch has P shards. Every shard elects one proposer with
// probability proportional to epoch-start stake and pays her W/P; in
// addition an inflation (attester) reward V is distributed to all miners
// exactly proportionally to epoch-start stake. Both reward streams join
// future staking power. The inflation reward carries no randomness, so it
// dilutes the variance of the proposer lottery: C-PoS is expectationally
// fair (Theorem 3.5) and achieves (ε,δ)-robust fairness whenever
// w²(1/n + w + v)/((w+v)²P) ≤ 2a²ε²/ln(2/δ) (Theorem 4.10) — strictly
// easier than ML-PoS, which is the degenerate case V=0, P=1.
type CPoS struct {
	// W is the total proposer reward per epoch (split evenly over shards).
	W float64
	// V is the total inflation (attester) reward per epoch.
	V float64
	// P is the number of shards per epoch (32 in Ethereum 2.0).
	P int
}

// NewCPoS returns the compound PoS model. It panics if w <= 0, v < 0 or
// p < 1.
func NewCPoS(w, v float64, p int) CPoS {
	validateReward("C-PoS", w)
	if v < 0 {
		panic(fmt.Sprintf("protocol: C-PoS inflation reward must be >= 0, got %v", v))
	}
	if p < 1 {
		panic(fmt.Sprintf("protocol: C-PoS needs at least 1 shard, got %d", p))
	}
	return CPoS{W: w, V: v, P: p}
}

// Name implements Protocol.
func (CPoS) Name() string { return "C-PoS" }

// Step runs one epoch. All P shard lotteries and the inflation allocation
// use the stake distribution at the start of the epoch, matching the
// Y_i ~ Bin(P, S_{i-1}/total) model in the paper's proofs.
//
// The epoch is bit-identical to P calls of r.Categorical on a copy of the
// epoch-start stakes, each followed by st.Credit(winner, W/P, W/P), then
// one inflation Credit per staked miner in miner order:
//   - rng.Cumulate sums the stakes left to right once, which is exactly
//     the total and every running sum Categorical computes per draw, and
//     checks them with Categorical's checks and panics;
//   - one Tally of P draws takes, for each draw, the same
//     u = Float64()·total from one Uint64 and picks the same index, so the
//     generator advances identically;
//   - no draw reads st.Stakes, and every credit adds to its own miner's
//     reward and stake (or withheld) balance, so crediting miner i's k
//     wins as k consecutive additions and then her inflation credit
//     performs, on each balance, the same additions in the same order as
//     interleaving them shard by shard. State.CreditN gives each balance
//     the bits of those k additions, in closed form when it can prove
//     them equal.
func (p CPoS) Step(st *game.State, r *rng.Rand) {
	m := st.NumMiners()
	var sumsBuf [stackMiners]float64
	var winsBuf [stackMiners]int
	sums, wins := scratch(&sumsBuf, m), scratch(&winsBuf, m)
	cum := rng.Cumulate(sums, st.Stakes)
	total := sums[m-1] // > 0, or Cumulate would have panicked
	r.Tally(&cum, p.P, wins)
	perShard := p.W / float64(p.P)
	for i, n := range wins {
		// Still the epoch-start stake: only this iteration credits miner i.
		s := st.Stakes[i]
		st.CreditN(i, n, perShard, perShard)
		// Inflation reward, exactly proportional to epoch-start stake.
		if p.V > 0 && s > 0 {
			amt := p.V * s / total
			st.Credit(i, amt, amt)
		}
	}
	st.EndBlock()
}
