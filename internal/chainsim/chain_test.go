package chainsim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
)

func TestLedgerBasics(t *testing.T) {
	genesis, alice, bob := twoMinerGenesis(0.2)
	l := NewLedger(genesis)
	if l.Balance(alice) != 200_000 || l.Balance(bob) != 800_000 {
		t.Errorf("balances = %d, %d", l.Balance(alice), l.Balance(bob))
	}
	if l.TotalSupply() != testCirculation {
		t.Errorf("supply = %d", l.TotalSupply())
	}
	l.Credit(alice, 500)
	if l.Balance(alice) != 200_500 || l.Issued() != 500 {
		t.Error("credit not applied")
	}
	if err := l.CheckConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
}

func TestChainAppendAppliesRewards(t *testing.T) {
	genesis, alice, bob := twoMinerGenesis(0.2)
	e := &MLPoSEngine{TargetPerUnit: uint64(math.Exp2(64) / 32 / testCirculation), BlockReward: testReward}
	c, err := NewChain(e, genesis, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MineAndAppend([]Address{alice, bob}, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 1 || c.Len() != 2 {
		t.Errorf("height %d len %d", c.Height(), c.Len())
	}
	if c.TotalRewards() != testReward {
		t.Errorf("rewards = %d", c.TotalRewards())
	}
	winner := c.Tip().Header.Proposer
	if c.rewards[winner] != testReward {
		t.Error("winner not credited")
	}
	if got := c.Lambda(winner); got != 1 {
		t.Errorf("lambda = %v", got)
	}
	// Stake view grows for PoS.
	if c.StakeView().TotalSupply() != testCirculation+testReward {
		t.Errorf("stake supply = %d", c.StakeView().TotalSupply())
	}
	if err := c.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestChainRejectsInvalidBlock(t *testing.T) {
	genesis, alice, bob := twoMinerGenesis(0.2)
	e := &SLPoSEngine{BlockReward: testReward, Stakers: []Address{alice, bob}}
	c, err := NewChain(e, genesis, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Mine(c.Tip(), c.StakeView(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := h
	bad.Reward *= 10
	if err := c.Append(&Block{Header: bad}); err == nil {
		t.Fatal("inflated-reward block accepted")
	}
	if c.Height() != 0 {
		t.Error("rejected block changed the chain")
	}
	if err := c.Append(&Block{Header: h}); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
}

func TestChainPoWRewardsDoNotStake(t *testing.T) {
	genesis, alice, bob := twoMinerGenesis(0.2)
	e := &PoWEngine{Target: 1 << 56, BlockReward: testReward,
		HashPower: map[Address]uint64{alice: 20, bob: 80}}
	c, err := NewChain(e, genesis, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for i := 0; i < 10; i++ {
		if err := c.MineAndAppend([]Address{alice, bob}, r); err != nil {
			t.Fatal(err)
		}
	}
	if c.StakeView().TotalSupply() != testCirculation {
		t.Error("PoW rewards leaked into the resource ledger")
	}
	if c.TotalRewards() != 10*testReward {
		t.Errorf("rewards = %d", c.TotalRewards())
	}
	if err := c.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestChainWithholding(t *testing.T) {
	genesis, alice, bob := twoMinerGenesis(0.2)
	e := &FSLPoSEngine{BlockReward: testReward, Stakers: []Address{alice, bob}}
	c, err := NewChain(e, genesis, 4, WithholdEvery(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 4; i++ {
		if err := c.MineAndAppend(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	// Before the boundary: stake view frozen at genesis.
	if c.StakeView().TotalSupply() != testCirculation {
		t.Errorf("stake grew before release: %d", c.StakeView().TotalSupply())
	}
	if c.TotalRewards() != 4*testReward {
		t.Errorf("rewards = %d", c.TotalRewards())
	}
	if err := c.CheckConservation(); err != nil {
		t.Error(err)
	}
	if err := c.MineAndAppend(nil, r); err != nil { // height 5: release
		t.Fatal(err)
	}
	if c.StakeView().TotalSupply() != testCirculation+5*testReward {
		t.Errorf("stake after release = %d", c.StakeView().TotalSupply())
	}
	if err := c.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestChainValidateReplay(t *testing.T) {
	genesis, alice, bob := twoMinerGenesis(0.3)
	e := &MLPoSEngine{TargetPerUnit: uint64(math.Exp2(64) / 32 / testCirculation), BlockReward: testReward}
	c, err := NewChain(e, genesis, 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 20; i++ {
		if err := c.MineAndAppend([]Address{alice, bob}, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Validate(genesis); err != nil {
		t.Errorf("honest chain fails replay: %v", err)
	}
	// Tamper with a mid-chain block: replay must fail.
	c.blocks[10].Header.Proposer = AddressFromSeed("mallory")
	if err := c.Validate(genesis); err == nil {
		t.Error("tampered chain passed replay validation")
	}
}

func TestNewChainRejectsEmptyGenesis(t *testing.T) {
	e := &SLPoSEngine{BlockReward: 1}
	if _, err := NewChain(e, nil, 0); !errors.Is(err, ErrEmptyGenesis) {
		t.Errorf("err = %v", err)
	}
	if _, err := NewChain(e, map[Address]uint64{AddressFromSeed("a"): 0}, 0); !errors.Is(err, ErrEmptyGenesis) {
		t.Errorf("zero-stake genesis err = %v", err)
	}
}

func TestNetworkPoWTwoMiner(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Engine: &PoWEngine{Target: 1 << 57, BlockReward: testReward},
		Miners: []MinerSpec{{Name: "alice", Resource: 20}, {Name: "bob", Resource: 80}},
		Seed:   1, Salt: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunBlocks(150); err != nil {
		t.Fatal(err)
	}
	l := net.Lambda("alice")
	if l < 0.05 || l > 0.4 {
		t.Errorf("alice λ = %v, wildly off 0.2", l)
	}
	if err := net.Chain.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestNetworkMLPoSGame(t *testing.T) {
	perUnit := uint64(math.Exp2(64) / 32 / testCirculation)
	net, err := NewNetwork(NetworkConfig{
		Engine: &MLPoSEngine{TargetPerUnit: perUnit, BlockReward: testReward},
		Miners: []MinerSpec{{Name: "alice", Resource: 200_000}, {Name: "bob", Resource: 800_000}},
		Salt:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunBlocks(200); err != nil {
		t.Fatal(err)
	}
	if net.Chain.TotalRewards() != 200*testReward {
		t.Errorf("rewards = %d", net.Chain.TotalRewards())
	}
	sum := net.Lambda("alice") + net.Lambda("bob")
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("λ sums to %v", sum)
	}
	if err := net.Chain.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestNetworkSLPoSDriftsToMonopoly(t *testing.T) {
	// The NXT analogue: across trials the mean λ of the small miner must
	// fall well below her 0.2 stake share (Figure 2(c) behaviour).
	sum := 0.0
	trials := 60
	for i := 0; i < trials; i++ {
		net, err := NewNetwork(NetworkConfig{
			Engine: &SLPoSEngine{BlockReward: 50_000}, // w = 0.05 speeds absorption
			Miners: []MinerSpec{{Name: "alice", Resource: 200_000}, {Name: "bob", Resource: 800_000}},
			Salt:   uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.RunBlocks(400); err != nil {
			t.Fatal(err)
		}
		sum += net.Lambda("alice")
	}
	mean := sum / float64(trials)
	if mean > 0.1 {
		t.Errorf("SL-PoS mean λ = %v, should collapse toward 0", mean)
	}
}

func TestNetworkFSLPoSStaysFairInMean(t *testing.T) {
	sum := 0.0
	trials := 80
	for i := 0; i < trials; i++ {
		net, err := NewNetwork(NetworkConfig{
			Engine: &FSLPoSEngine{BlockReward: testReward},
			Miners: []MinerSpec{{Name: "alice", Resource: 200_000}, {Name: "bob", Resource: 800_000}},
			Salt:   uint64(i + 1000),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.RunBlocks(200); err != nil {
			t.Fatal(err)
		}
		sum += net.Lambda("alice")
	}
	mean := sum / float64(trials)
	if math.Abs(mean-0.2) > 0.05 {
		t.Errorf("FSL-PoS mean λ = %v, want ~0.2", mean)
	}
}

func TestNetworkConfigValidation(t *testing.T) {
	if _, err := NewNetwork(NetworkConfig{Engine: &SLPoSEngine{BlockReward: 1}}); !errors.Is(err, ErrNoMiners) {
		t.Errorf("empty miners err = %v", err)
	}
	if _, err := NewNetwork(NetworkConfig{
		Engine: &SLPoSEngine{BlockReward: 1},
		Miners: []MinerSpec{{Name: "a", Resource: 0}},
	}); err == nil {
		t.Error("zero resource accepted")
	}
	if _, err := NewNetwork(NetworkConfig{
		Engine: &SLPoSEngine{BlockReward: 1},
		Miners: []MinerSpec{{Name: "a", Resource: 1}, {Name: "a", Resource: 2}},
	}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestNetworkNames(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Engine: &SLPoSEngine{BlockReward: 1},
		Miners: []MinerSpec{{Name: "alice", Resource: 1}, {Name: "bob", Resource: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.NameOf(AddressFromSeed("alice")) != "alice" {
		t.Error("NameOf wrong")
	}
	if got := net.StakeShare("bob"); got != 0.75 {
		t.Errorf("StakeShare = %v", got)
	}
}

func TestNetworkWithholdingFreezesStakeShare(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Engine:        &FSLPoSEngine{BlockReward: 50_000},
		Miners:        []MinerSpec{{Name: "alice", Resource: 200_000}, {Name: "bob", Resource: 800_000}},
		Salt:          7,
		WithholdEvery: 1000, // longer than the run: stake never updates
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.RunBlocks(100); err != nil {
		t.Fatal(err)
	}
	if got := net.StakeShare("alice"); got != 0.2 {
		t.Errorf("withheld stake share = %v, want frozen 0.2", got)
	}
	if net.Chain.TotalRewards() == 0 {
		t.Error("rewards should still accrue")
	}
	if err := net.Chain.CheckConservation(); err != nil {
		t.Error(err)
	}
}
