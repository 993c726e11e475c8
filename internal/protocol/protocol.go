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
type Protocol interface {
	// Name returns a short identifier, e.g. "PoW" or "ML-PoS".
	Name() string
	// Step runs one block/epoch: it selects the proposer(s), credits
	// rewards via st.Credit and finishes with st.EndBlock.
	Step(st *game.State, r *rng.Rand)
}

// Run advances the game n steps. It is the shared inner loop of examples
// and tests; the Monte-Carlo harness has its own loop with checkpointing.
func Run(p Protocol, st *game.State, r *rng.Rand, n int) {
	for i := 0; i < n; i++ {
		p.Step(st, r)
	}
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
