// Package protocol implements the blockchain incentive models the paper
// analyses (Section 2): PoW, multi-lottery PoS (ML-PoS, e.g. Qtum and
// Blackcoin), single-lottery PoS (SL-PoS, e.g. NXT) and compound PoS
// (C-PoS, e.g. Ethereum 2.0); the fairness treatment FSL-PoS (Section 6.2);
// and the extension incentives discussed in Section 6.4 (NEO, Algorand,
// EOS).
//
// Every model advances a game.State one block (or epoch) at a time by
// selecting proposers and crediting rewards. Implementations are
// stateless values, safe to share across concurrent trials: all mutable
// state lives in the game.State.
package protocol

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/rng"
)

// Protocol advances a mining game by one block or epoch.
//
// Implementations must be stateless (all per-game state lives in the
// game.State) so that a single value can drive many concurrent trials.
// Step is the per-block path and the reference for every other: Run
// advances a game many blocks at once, through a protocol's own loop
// where it has one, and must leave the state and generator exactly as
// repeated Steps would.
type Protocol interface {
	// Name returns a short identifier, e.g. "PoW" or "ML-PoS".
	Name() string
	// Step runs one block/epoch: it selects the proposer(s), credits
	// rewards via st.Credit and finishes with st.EndBlock.
	Step(st *game.State, r *rng.Rand)
}

// Run advances the game n blocks (epochs for C-PoS): bit for bit what n
// calls of p.Step give, generator included, and where one of those calls
// would panic, Run panics with its message. PoW, ML-PoS, SL-PoS and C-PoS
// advance a two-miner game without withholding in one loop that keeps
// both stakes, both rewards and the generator in registers; every other
// game and protocol is stepped block by block. It is the inner loop of
// the Monte-Carlo harness, which runs each trial from checkpoint to
// checkpoint through it.
func Run(p Protocol, st *game.State, r *rng.Rand, n int) {
	if a, ok := p.(advancer); ok {
		a.advance(st, r, n)
		return
	}
	steps(p, st, r, n)
}

// advancer is a Protocol with a loop of its own over many blocks:
// advance(st, r, n) must do exactly what steps(p, st, r, n) does. Each
// implementation runs its loop only in a game it can keep in registers
// (see twoMiners) and hands any other game, and any block its loop
// cannot prove it plays as Step does, to steps.
type advancer interface {
	advance(st *game.State, r *rng.Rand, n int)
}

// steps advances the game n blocks, one Step each.
func steps(p Protocol, st *game.State, r *rng.Rand, n int) {
	for ; n > 0; n-- {
		p.Step(st, r)
	}
}

// twoMiners reports whether an advance loop can hold st in registers:
// two miners whose credits join their stakes at once, so that EndBlock
// only counts the block.
func twoMiners(st *game.State) bool {
	return st.NumMiners() == 2 && !st.Withholds()
}

// drawable reports whether rng.Categorical accepts the two stakes as
// weights: neither negative nor NaN, with a positive total. Where it
// does not, Categorical and Cumulate panic.
func drawable(s0, s1 float64) bool {
	return s0 >= 0 && s1 >= 0 && s0+s1 > 0
}

// stackMiners is the largest miner count whose per-step scratch lives in
// arrays on the stepping goroutine's stack, which keeps Step free of
// allocations; a larger game allocates its scratch on every step.
const stackMiners = 16

// scratch returns m zeroed elements: the front of buf when they fit, a
// new heap slice otherwise.
func scratch[T float64 | int](buf *[stackMiners]T, m int) []T {
	if m <= len(buf) {
		return buf[:m]
	}
	return make([]T, m)
}

// validateReward panics on a non-positive block reward. Constructors call
// it so that a mis-configured experiment fails loudly at set-up time
// rather than producing silently meaningless fairness numbers.
func validateReward(name string, w float64) {
	if !(w > 0) {
		panic(fmt.Sprintf("protocol: %s requires positive reward, got %v", name, w))
	}
}
