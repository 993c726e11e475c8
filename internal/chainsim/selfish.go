package chainsim

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Selfish-mining simulation: the Eyal–Sirer withholding strategy played
// out with real nonce-ground blocks on this package's chain structures.
// One attacker mines on a private branch and publishes it strategically
// — racing a single block when its lead collapses to one, releasing the
// whole branch when threatened at lead two, and bleeding the branch out
// one block at a time above that. internal/attack runs the same state
// machine in the abstract (one Bernoulli draw per event); here every
// event is an actual SHA-256 puzzle race, blocks carry valid hash
// linkage and are re-verified as they settle, and the attacker's network
// advantage γ appears as the per-honest-miner probability of mining on
// the attacker's branch during a race (the race-block producer always
// backs its own block, so the effective advantage is slightly below γ —
// the finite-miner correction the abstract model ignores).

// SelfishConfig assembles a selfish-mining simulation.
type SelfishConfig struct {
	// Target is the per-hash success threshold out of 2^64 (default
	// 1<<57).
	Target uint64
	// BlockReward is the coinbase per canonical block in ledger units.
	BlockReward uint64
	// Miners lists the participants; Resource is hash power.
	Miners []MinerSpec
	// Attacker is the index of the selfish miner.
	Attacker int
	// Gamma is the attacker's network advantage in [0, 1]: the
	// probability that an honest miner mines on the attacker's branch
	// during a 1-vs-1 race.
	Gamma float64
	// Seed drives nonce offsets and race sides.
	Seed uint64
	// Salt differentiates the genesis across Monte-Carlo trials.
	Salt uint64
	// MaxTrials caps each per-miner nonce search (0 = default).
	MaxTrials uint64
	// Delay, when > 0, caps the private lead: the attacker publishes the
	// whole branch as soon as it is Delay blocks ahead (the committed
	// selfish-delay strategy; 1 is behaviourally honest). 0 keeps the
	// classic uncapped withholding.
	Delay int
}

// SelfishSim drives one attacked chain. Use NewSelfishSim, then
// RunEvents to a horizon, reading Lambda at checkpoints.
type SelfishSim struct {
	cfg     SelfishConfig
	miners  []powMiner
	tip     *Block   // settled public canonical tip
	chain   []*Block // settled canonical chain, genesis first
	private []*Block // attacker's withheld branch on top of tip
	racing  bool
	raceSel *Block // published attacker block competing at tip height+1
	raceHon *Block // honest block competing at the same height
	sides   []bool // per miner during a race: true = attacker's branch
	rewards map[Address]uint64
	total   uint64
	orphans int
	r       *rng.Rand
}

// NewSelfishSim validates the configuration and builds the genesis state.
func NewSelfishSim(cfg SelfishConfig) (*SelfishSim, error) {
	if cfg.Target == 0 {
		cfg.Target = 1 << 57
	}
	miners, _, err := buildPoWMiners(cfg.Miners)
	if err != nil {
		return nil, err
	}
	if cfg.Attacker < 0 || cfg.Attacker >= len(miners) {
		return nil, fmt.Errorf("%w: attacker = %d with %d miners", ErrForkSim, cfg.Attacker, len(miners))
	}
	if !(cfg.Gamma >= 0 && cfg.Gamma <= 1) || math.IsNaN(cfg.Gamma) {
		return nil, fmt.Errorf("%w: gamma = %v, need [0, 1]", ErrForkSim, cfg.Gamma)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("%w: delay = %d, need >= 0", ErrForkSim, cfg.Delay)
	}
	genesis := &Block{Header: Header{Kind: KindPoW, Nonce: cfg.Salt}}
	return &SelfishSim{
		cfg:     cfg,
		miners:  miners,
		tip:     genesis,
		chain:   []*Block{genesis},
		sides:   make([]bool, len(miners)),
		rewards: make(map[Address]uint64, len(miners)),
		r:       rng.New(cfg.Seed),
	}, nil
}

// settle verifies and appends one canonical block.
func (s *SelfishSim) settle(b *Block) error {
	if err := verifyLink(s.tip, b, s.cfg.Target); err != nil {
		return err
	}
	s.chain = append(s.chain, b)
	s.tip = b
	s.rewards[b.Header.Proposer] += b.Header.Reward
	s.total += b.Header.Reward
	return nil
}

// privateTip returns the attacker's current mining tip.
func (s *SelfishSim) privateTip() *Block {
	if n := len(s.private); n > 0 {
		return s.private[n-1]
	}
	if s.racing {
		return s.raceSel
	}
	return s.tip
}

// RunEvents advances the simulation by count block-discovery events.
// Each event is one real puzzle race: every miner grinds from its
// current branch tip — the attacker from its private chain, honest
// miners from the public tip or, during a race, from the side they
// back — and the earliest success decides the state transition.
func (s *SelfishSim) RunEvents(count int) error {
	atk := s.cfg.Attacker
	found, o0 := 0, s.orphans
	defer func() {
		// Each completed event discovers exactly one block (canonical or
		// eventually orphaned).
		simBlocks.Add(int64(found))
		simForks.Add(int64(s.orphans - o0))
	}()
	parents := make([]*Block, len(s.miners))
	for n := 0; n < count; n++ {
		for i := range s.miners {
			switch {
			case i == atk:
				parents[i] = s.privateTip()
			case s.racing && s.sides[i]:
				parents[i] = s.raceSel
			case s.racing:
				parents[i] = s.raceHon
			default:
				parents[i] = s.tip
			}
		}
		b, finder, err := grindBlock(s.miners, parents, s.cfg.Target, s.cfg.MaxTrials, s.cfg.BlockReward, s.r)
		if err != nil {
			return err
		}
		found++
		switch {
		case s.racing:
			// The new block resolves the 1-vs-1 race for whichever side
			// it extends; the losing race block is orphaned.
			winner := s.raceHon
			if finder == atk || s.sides[finder] {
				winner = s.raceSel
			}
			if err := s.settle(winner); err != nil {
				return err
			}
			if err := s.settle(b); err != nil {
				return err
			}
			s.orphans++
			s.racing = false
		case finder == atk:
			// The attacker extends her private branch in silence — until
			// the publish-delay cap, where the whole branch settles: the
			// public tip has not advanced since the fork point, so every
			// private block becomes canonical with no race and no orphans.
			s.private = append(s.private, b)
			if s.cfg.Delay > 0 && len(s.private) >= s.cfg.Delay {
				for _, pb := range s.private {
					if err := s.settle(pb); err != nil {
						return err
					}
				}
				s.private = nil
			}
		default:
			// An honest miner extended the public tip.
			switch lead := len(s.private); lead {
			case 0:
				if err := s.settle(b); err != nil {
					return err
				}
			case 1:
				// The attacker publishes her single private block: race.
				// The honest producer backs its own block; every other
				// honest miner backs the attacker's with probability γ.
				s.racing = true
				s.raceSel, s.raceHon = s.private[0], b
				s.private = nil
				for i := range s.miners {
					switch i {
					case atk:
						s.sides[i] = true
					case finder:
						s.sides[i] = false
					default:
						s.sides[i] = s.r.Float64() < s.cfg.Gamma
					}
				}
			case 2:
				// Threatened at lead two, the attacker releases the whole
				// branch and takes both blocks; the honest block dies.
				for _, pb := range s.private {
					if err := s.settle(pb); err != nil {
						return err
					}
				}
				s.private = nil
				s.orphans++
			default:
				// Lead > 2: publish one block, keep mining privately. The
				// honest block can never reach the canonical chain.
				if err := s.settle(s.private[0]); err != nil {
					return err
				}
				s.private = s.private[1:]
				s.orphans++
			}
		}
	}
	return nil
}

// Lambda returns the named miner's reward fraction, settling in-flight
// state the way internal/attack's Sim.Snapshot does: an unresolved race
// goes to the honest race block (conservative for the attacker) and a
// withheld private branch is flushed to the attacker.
func (s *SelfishSim) Lambda(name string) float64 {
	addr := AddressFromSeed(name)
	num := float64(s.rewards[addr])
	den := float64(s.total)
	w := float64(s.cfg.BlockReward)
	switch {
	case s.racing:
		den += w
		if addr == s.raceHon.Header.Proposer {
			num += w
		}
	case len(s.private) > 0:
		den += w * float64(len(s.private))
		if addr == s.miners[s.cfg.Attacker].addr {
			num += w * float64(len(s.private))
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Orphans returns the number of blocks discarded in fork resolutions.
func (s *SelfishSim) Orphans() int { return s.orphans }

// Canonical returns the settled chain, genesis first.
func (s *SelfishSim) Canonical() []*Block { return s.chain }
