package chainsim

import (
	"fmt"

	"repro/internal/rng"
)

// Chain is an append-only validated blockchain with its staking-power view
// and reward accounting. It supports the paper's reward-withholding
// treatment natively: with WithholdEvery = K, coinbase rewards count
// toward a miner's measured income immediately but only join her staking
// power when the height reaches a multiple of K (Section 6.3).
type Chain struct {
	engine Engine
	blocks []*Block

	// stake is the staking-power view engines mine and verify against.
	stake *Ledger
	// rewards tracks cumulative coinbase per miner (the λ numerator).
	rewards      map[Address]uint64
	totalRewards uint64
	// pending holds withheld rewards not yet staking.
	pending       map[Address]uint64
	withholdEvery uint64
	// minerWithhold overrides the global withholding period per address
	// (WithholdNever = never release) — the `withhold` adversary
	// strategy, one deviating miner against the global treatment.
	minerWithhold map[Address]uint64
}

// ChainOption configures a new chain.
type ChainOption func(*Chain)

// WithholdNever, as a per-miner withholding period, keeps the miner's
// rewards out of her staking power forever.
const WithholdNever = ^uint64(0)

// WithholdEvery defers the staking effect of rewards to the next
// multiple-of-k height. k = 0 (default) stakes rewards immediately.
func WithholdEvery(k uint64) ChainOption {
	return func(c *Chain) { c.withholdEvery = k }
}

// WithholdMiner overrides the withholding period for one address: her
// rewards join her staking power at multiples of k (k = 0 immediately,
// WithholdNever never), regardless of the global period.
func WithholdMiner(addr Address, k uint64) ChainOption {
	return func(c *Chain) {
		if c.minerWithhold == nil {
			c.minerWithhold = make(map[Address]uint64)
		}
		c.minerWithhold[addr] = k
	}
}

// withholdPeriod resolves an address's effective withholding period:
// 0 = stake immediately, WithholdNever = never, else the release period.
func (c *Chain) withholdPeriod(addr Address) uint64 {
	if c.minerWithhold != nil {
		if k, ok := c.minerWithhold[addr]; ok {
			return k
		}
	}
	return c.withholdEvery
}

// NewChain builds a chain with a genesis block over the given allocation.
// The salt distinguishes Monte-Carlo trials: PoS engines are deterministic
// in the parent hash, so two chains with equal genesis would replay the
// same lottery outcomes.
func NewChain(engine Engine, genesis map[Address]uint64, salt uint64, opts ...ChainOption) (*Chain, error) {
	if len(genesis) == 0 {
		return nil, ErrEmptyGenesis
	}
	total := uint64(0)
	for _, v := range genesis {
		total += v
	}
	if total == 0 {
		return nil, ErrEmptyGenesis
	}
	c := &Chain{
		engine:  engine,
		stake:   NewLedger(genesis),
		rewards: make(map[Address]uint64),
		pending: make(map[Address]uint64),
	}
	for _, o := range opts {
		o(c)
	}
	gen := &Block{Header: Header{
		Height:     0,
		ParentHash: GenesisParent,
		Kind:       engine.Kind(),
		Nonce:      salt,
	}}
	c.blocks = append(c.blocks, gen)
	return c, nil
}

// Tip returns the latest block.
func (c *Chain) Tip() *Block { return c.blocks[len(c.blocks)-1] }

// Height returns the tip height.
func (c *Chain) Height() uint64 { return c.Tip().Header.Height }

// Len returns the number of blocks including genesis.
func (c *Chain) Len() int { return len(c.blocks) }

// StakeView returns the chain's current staking-power ledger (what the
// next block's lottery will be drawn against).
func (c *Chain) StakeView() *Ledger { return c.stake }

// TotalRewards returns the cumulative coinbase issued.
func (c *Chain) TotalRewards() uint64 { return c.totalRewards }

// Lambda returns addr's fraction of all rewards issued so far (the
// paper's λ), or NaN-like -1 sentinel avoided: it returns 0 when no
// rewards exist yet.
func (c *Chain) Lambda(addr Address) float64 {
	if c.totalRewards == 0 {
		return 0
	}
	return float64(c.rewards[addr]) / float64(c.totalRewards)
}

// Credit is one reward grant produced by an engine's epoch hook.
type Credit struct {
	Addr   Address
	Amount uint64
}

// Inflator is an optional Engine extension for protocols that distribute
// epoch-level inflation rewards in addition to per-block proposer rewards
// (the attester rewards of C-PoS, Section 2.4). EpochInflation is called
// after each block's proposer reward is applied, with the pre-release
// staking view, and returns the credits to grant (nil when the height is
// not an epoch boundary).
type Inflator interface {
	EpochInflation(height uint64, stake *Ledger) []Credit
}

// Append validates the block against the tip and the current staking view
// and, if valid, applies its coinbase. Invalid blocks leave the chain
// unchanged and return a descriptive error.
func (c *Chain) Append(b *Block) error {
	if err := c.engine.Verify(&b.Header, c.Tip(), c.stake); err != nil {
		return err
	}
	c.blocks = append(c.blocks, b)
	c.applyReward(b.Header.Proposer, b.Header.Reward)
	return nil
}

func (c *Chain) applyReward(proposer Address, reward uint64) {
	conveys := c.engine.RewardsConveyStake()
	c.creditReward(proposer, reward, conveys)
	// Epoch-level inflation (C-PoS attester rewards) is computed on the
	// staking view BEFORE this boundary's pending release, i.e. on the
	// epoch-start stake as in the paper's model.
	if inf, ok := c.engine.(Inflator); ok {
		for _, cr := range inf.EpochInflation(c.Height(), c.stake) {
			c.creditReward(cr.Addr, cr.Amount, conveys)
		}
	}
	for a, p := range c.pending {
		if p == 0 {
			continue
		}
		if k := c.withholdPeriod(a); k > 0 && k != WithholdNever && c.Height()%k == 0 {
			c.stake.Credit(a, p)
			c.pending[a] = 0
		}
	}
}

// creditReward records income for addr; when conveysStake it joins the
// staking view now or, under withholding, at the next release boundary.
func (c *Chain) creditReward(addr Address, amount uint64, conveysStake bool) {
	if amount == 0 {
		return
	}
	c.rewards[addr] += amount
	c.totalRewards += amount
	if !conveysStake {
		return
	}
	if c.withholdPeriod(addr) != 0 {
		c.pending[addr] += amount
		return
	}
	c.stake.Credit(addr, amount)
}

// MineAndAppend mines the next block with the chain's engine and appends
// it. It is the inner loop of the network simulator.
func (c *Chain) MineAndAppend(miners []Address, r *rng.Rand) error {
	h, err := c.engine.Mine(c.Tip(), c.stake, miners, r)
	if err != nil {
		return err
	}
	return c.Append(&Block{Header: h})
}

// Validate re-verifies the whole chain from genesis, replaying the ledger.
// It returns the first validation error, or nil. Used as an end-to-end
// integrity check after simulations.
func (c *Chain) Validate(genesis map[Address]uint64) error {
	replay, err := NewChain(c.engine, genesis, c.blocks[0].Header.Nonce, func(r *Chain) {
		r.withholdEvery = c.withholdEvery
		r.minerWithhold = c.minerWithhold
	})
	if err != nil {
		return err
	}
	for i := 1; i < len(c.blocks); i++ {
		if err := replay.Append(c.blocks[i]); err != nil {
			return fmt.Errorf("chainsim: block %d invalid on replay: %w", i, err)
		}
	}
	if replay.totalRewards != c.totalRewards {
		return fmt.Errorf("chainsim: replay rewards %d != chain rewards %d", replay.totalRewards, c.totalRewards)
	}
	return nil
}

// CheckConservation verifies stake-ledger conservation including withheld
// rewards: supply must equal genesis plus all stake-conveying rewards.
func (c *Chain) CheckConservation() error {
	if err := c.stake.CheckConservation(); err != nil {
		return err
	}
	if !c.engine.RewardsConveyStake() {
		if c.stake.Issued() != 0 {
			return fmt.Errorf("chainsim: non-staking engine issued %d stake", c.stake.Issued())
		}
		return nil
	}
	var withheld uint64
	for _, p := range c.pending {
		withheld += p
	}
	if c.stake.Issued()+withheld != c.totalRewards {
		return fmt.Errorf("chainsim: staked %d + withheld %d != rewards %d",
			c.stake.Issued(), withheld, c.totalRewards)
	}
	return nil
}
