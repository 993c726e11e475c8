package chainsim

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rng"
)

// P2P network simulation for PoW. The single-Chain Network type resolves
// every block race instantly; real deployments — including the paper's
// two-instance Geth networks — propagate blocks with latency, fork when
// two miners find blocks concurrently, and resolve forks by longest-chain
// adoption. P2PSim models exactly that: round-based mining over each
// node's local view, per-link propagation delay, first-received
// tie-breaking and longest-chain reorganisation, so the fairness
// measurements can be taken under realistic network conditions (and the
// delay ablation quantifies how latency erodes small-miner fairness).

// P2PConfig assembles a proof-of-work peer-to-peer simulation.
type P2PConfig struct {
	// Target is the per-trial PoW success threshold out of 2^64.
	Target uint64
	// BlockReward is the coinbase per block.
	BlockReward uint64
	// Miners lists the nodes; Resource is hash trials per round.
	Miners []MinerSpec
	// DelayRounds is the propagation delay of a block to every peer
	// (0 = next-round delivery).
	DelayRounds int
	// Seed drives all nonce searches.
	Seed uint64
	// Salt differentiates the genesis across trials.
	Salt uint64
	// MaxRounds caps the simulation (safety valve).
	MaxRounds int
}

// p2pNode is one miner's local view.
type p2pNode struct {
	addr  Address
	power uint64
	store map[Hash]*Block
	tip   *Block
	nonce uint64
	rng   *rng.Rand
}

// adopt switches the node's tip to b if it is strictly higher than the
// current tip (first-received wins height ties).
func (n *p2pNode) adopt(b *Block) {
	if b.Header.Height > n.tip.Header.Height {
		n.tip = b
	}
}

type delivery struct {
	round int
	to    int
	block *Block
}

// P2PResult summarises one peer-to-peer run.
type P2PResult struct {
	// Canonical is the winning chain, genesis first.
	Canonical []*Block
	// Produced counts every block mined by any node.
	Produced int
	// Rounds is the number of simulated rounds.
	Rounds  int
	rewards map[Address]uint64
}

// CanonicalHeight returns the height of the winning chain.
func (r *P2PResult) CanonicalHeight() int { return len(r.Canonical) - 1 }

// Orphans returns the number of mined blocks that did not make the
// canonical chain.
func (r *P2PResult) Orphans() int { return r.Produced - r.CanonicalHeight() }

// Lambda returns the named miner's fraction of canonical-chain rewards.
func (r *P2PResult) Lambda(name string) float64 {
	var total uint64
	for _, v := range r.rewards {
		total += v
	}
	if total == 0 {
		return 0
	}
	return float64(r.rewards[AddressFromSeed(name)]) / float64(total)
}

// ErrP2PConfig reports an invalid P2P configuration.
var ErrP2PConfig = errors.New("chainsim: invalid p2p config")

// RunP2P simulates the network until the canonical chain reaches the
// requested number of blocks (plus final synchronisation), returning the
// canonical chain and fork statistics.
func RunP2P(cfg P2PConfig, blocks int) (*P2PResult, error) {
	if len(cfg.Miners) == 0 {
		return nil, fmt.Errorf("%w: no miners", ErrP2PConfig)
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("%w: blocks = %d", ErrP2PConfig, blocks)
	}
	if cfg.Target == 0 {
		return nil, fmt.Errorf("%w: zero target", ErrP2PConfig)
	}
	if cfg.DelayRounds < 0 {
		return nil, fmt.Errorf("%w: negative delay", ErrP2PConfig)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10_000_000
	}
	genesis := &Block{Header: Header{Kind: KindPoW, Nonce: cfg.Salt}}
	nodes := make([]*p2pNode, len(cfg.Miners))
	for i, m := range cfg.Miners {
		if m.Resource == 0 {
			return nil, fmt.Errorf("%w: miner %q has zero hash power", ErrP2PConfig, m.Name)
		}
		n := &p2pNode{
			addr:  AddressFromSeed(m.Name),
			power: m.Resource,
			store: map[Hash]*Block{genesis.Hash(): genesis},
			tip:   genesis,
			rng:   rng.Stream(cfg.Seed, i),
		}
		n.nonce = n.rng.Uint64() // decorrelate nonce spaces across nodes
		nodes[i] = n
	}

	var queue []delivery
	produced := 0
	round := 0
	for ; round < maxRounds; round++ {
		// Phase 1: deliver due blocks (in deterministic order).
		if len(queue) > 0 {
			var rest []delivery
			due := make([]delivery, 0)
			for _, d := range queue {
				if d.round <= round {
					due = append(due, d)
				} else {
					rest = append(rest, d)
				}
			}
			queue = rest
			sort.SliceStable(due, func(i, j int) bool { return due[i].to < due[j].to })
			for _, d := range due {
				n := nodes[d.to]
				h := &d.block.Header
				parent, known := n.store[h.ParentHash]
				if !known {
					// With uniform delay parents always precede children;
					// an unknown parent is a protocol violation.
					return nil, fmt.Errorf("chainsim: node %d received orphan-parent block at height %d", d.to, h.Height)
				}
				if h.Height != parent.Header.Height+1 || h.Reward != cfg.BlockReward ||
					h.Kind != KindPoW || powDigest(h.ParentHash, h.Proposer, h.Nonce) >= cfg.Target {
					return nil, fmt.Errorf("chainsim: node %d received invalid block at height %d", d.to, h.Height)
				}
				if _, dup := n.store[d.block.Hash()]; !dup {
					n.store[d.block.Hash()] = d.block
					n.adopt(d.block)
				}
			}
		}
		// Phase 2: everyone mines on their local tip.
		done := false
		for i, n := range nodes {
			found := false
			var nonce uint64
			for t := uint64(0); t < n.power; t++ {
				n.nonce++
				if powDigest(n.tip.Hash(), n.addr, n.nonce) < cfg.Target {
					found = true
					nonce = n.nonce
					break
				}
			}
			if !found {
				continue
			}
			b := &Block{Header: Header{
				Height:     n.tip.Header.Height + 1,
				ParentHash: n.tip.Hash(),
				Kind:       KindPoW,
				Proposer:   n.addr,
				Timestamp:  uint64(round),
				Nonce:      nonce,
				Reward:     cfg.BlockReward,
			}}
			produced++
			n.store[b.Hash()] = b
			n.adopt(b)
			for j := range nodes {
				if j != i {
					queue = append(queue, delivery{round: round + 1 + cfg.DelayRounds, to: j, block: b})
				}
			}
			if int(b.Header.Height) >= blocks {
				done = true
			}
		}
		if done {
			break
		}
	}
	if round >= maxRounds {
		return nil, fmt.Errorf("chainsim: p2p simulation exceeded %d rounds", maxRounds)
	}
	// Final synchronisation: flush all pending deliveries so every node
	// sees every block, then pick the highest tip (lowest node index on
	// ties) as canonical.
	for _, d := range queue {
		n := nodes[d.to]
		if _, dup := n.store[d.block.Hash()]; !dup {
			n.store[d.block.Hash()] = d.block
			n.adopt(d.block)
		}
	}
	best := nodes[0]
	for _, n := range nodes[1:] {
		if n.tip.Header.Height > best.tip.Header.Height {
			best = n
		}
	}
	// Walk back to genesis.
	var canonical []*Block
	for b := best.tip; ; {
		canonical = append(canonical, b)
		if b.Header.Height == 0 {
			break
		}
		parent, ok := best.store[b.Header.ParentHash]
		if !ok {
			return nil, errors.New("chainsim: canonical chain has a hole")
		}
		b = parent
	}
	// Reverse to genesis-first order and tally rewards.
	for i, j := 0, len(canonical)-1; i < j; i, j = i+1, j-1 {
		canonical[i], canonical[j] = canonical[j], canonical[i]
	}
	rewards := map[Address]uint64{}
	for _, b := range canonical[1:] {
		rewards[b.Header.Proposer] += b.Header.Reward
	}
	return &P2PResult{
		Canonical: canonical,
		Produced:  produced,
		Rounds:    round + 1,
		rewards:   rewards,
	}, nil
}

// VerifyCanonical re-validates a canonical chain returned by RunP2P:
// heights, parent links and PoW digests. Used by tests and the delay
// experiment as an end-to-end integrity check.
func VerifyCanonical(canonical []*Block, target uint64) error {
	if len(canonical) == 0 {
		return errors.New("chainsim: empty canonical chain")
	}
	for i := 1; i < len(canonical); i++ {
		h := &canonical[i].Header
		prev := canonical[i-1]
		if h.Height != prev.Header.Height+1 {
			return fmt.Errorf("chainsim: height break at %d", i)
		}
		if h.ParentHash != prev.Hash() {
			return fmt.Errorf("chainsim: parent break at %d", i)
		}
		if powDigest(h.ParentHash, h.Proposer, h.Nonce) >= target {
			return fmt.Errorf("chainsim: invalid PoW at %d", i)
		}
	}
	return nil
}
