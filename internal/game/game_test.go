package game

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewNormalises(t *testing.T) {
	s, err := New([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Initial[0] != 0.2 || s.Initial[1] != 0.8 {
		t.Errorf("Initial = %v", s.Initial)
	}
	if s.Stakes[0] != 0.2 || s.Stakes[1] != 0.8 {
		t.Errorf("Stakes = %v", s.Stakes)
	}
	if s.TotalStake() != 1 {
		t.Errorf("TotalStake = %v", s.TotalStake())
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cases := [][]float64{
		nil,
		{1},
		{1, 0},
		{1, -2},
		{1, math.NaN()},
		{1, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := New(c); !errors.Is(err, ErrBadInitial) {
			t.Errorf("New(%v) err = %v, want ErrBadInitial", c, err)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad input")
		}
	}()
	MustNew([]float64{1})
}

func TestCreditAndLambda(t *testing.T) {
	s := MustNew(TwoMiner(0.2))
	if !math.IsNaN(s.Lambda(0)) {
		t.Error("Lambda before any reward should be NaN")
	}
	s.Credit(0, 0.01, 0.01)
	s.EndBlock()
	if got := s.Lambda(0); got != 1 {
		t.Errorf("Lambda(0) = %v, want 1", got)
	}
	if got := s.Lambda(1); got != 0 {
		t.Errorf("Lambda(1) = %v, want 0", got)
	}
	if got := s.Stakes[0]; !closeTo(got, 0.21) {
		t.Errorf("stake = %v, want 0.21", got)
	}
	if s.Blocks != 1 {
		t.Errorf("Blocks = %d", s.Blocks)
	}
}

func TestCreditZeroStakeDoesNotChangePower(t *testing.T) {
	s := MustNew(TwoMiner(0.3))
	s.Credit(0, 5, 0)
	if s.Stakes[0] != 0.3 {
		t.Errorf("PoW-style credit changed stake: %v", s.Stakes[0])
	}
	if s.Rewards[0] != 5 {
		t.Errorf("reward not recorded: %v", s.Rewards[0])
	}
}

func TestCreditNMatchesRepeatedCredit(t *testing.T) {
	for name, opts := range map[string][]Option{
		"immediate":      nil,
		"all-every-4":    {WithWithholding(4)},
		"miner1-forever": {WithMinerWithholding(1, 0)},
	} {
		for _, stake := range []float64{0, 0.37} {
			for _, n := range []int{0, 1, 7, 32} {
				got, want := MustNew([]float64{0.3, 0.7}, opts...), MustNew([]float64{0.3, 0.7}, opts...)
				for i := 0; i < 2; i++ {
					got.CreditN(i, n, 0.01, stake)
					for k := 0; k < n; k++ {
						want.Credit(i, 0.01, stake)
					}
					if math.Float64bits(got.Rewards[i]) != math.Float64bits(want.Rewards[i]) ||
						math.Float64bits(got.Stakes[i]) != math.Float64bits(want.Stakes[i]) ||
						math.Float64bits(got.PendingStake(i)) != math.Float64bits(want.PendingStake(i)) {
						t.Errorf("%s, stake %v, n %d, miner %d: CreditN gave (%v, %v, %v), Credit ×n (%v, %v, %v)",
							name, stake, n, i, got.Rewards[i], got.Stakes[i], got.PendingStake(i),
							want.Rewards[i], want.Stakes[i], want.PendingStake(i))
					}
				}
			}
		}
	}
}

func TestWithholdingReleasesAtBoundary(t *testing.T) {
	s := MustNew(TwoMiner(0.2), WithWithholding(3))
	for b := 0; b < 2; b++ {
		s.Credit(0, 0.01, 0.01)
		s.EndBlock()
	}
	if s.Stakes[0] != 0.2 {
		t.Errorf("stake leaked before boundary: %v", s.Stakes[0])
	}
	if got := s.PendingStake(0); !closeTo(got, 0.02) {
		t.Errorf("pending = %v", got)
	}
	// λ still counts the rewards immediately.
	if got := s.Lambda(0); got != 1 {
		t.Errorf("Lambda under withholding = %v", got)
	}
	s.Credit(0, 0.01, 0.01)
	s.EndBlock() // block 3: release
	if got := s.Stakes[0]; !closeTo(got, 0.23) {
		t.Errorf("stake after release = %v, want 0.23", got)
	}
	if s.PendingStake(0) != 0 {
		t.Errorf("pending not cleared: %v", s.PendingStake(0))
	}
}

func TestWithholdingDisabled(t *testing.T) {
	s := MustNew(TwoMiner(0.2), WithWithholding(0))
	s.Credit(0, 0.01, 0.01)
	if !closeTo(s.Stakes[0], 0.21) {
		t.Errorf("k<=0 should mean immediate staking: %v", s.Stakes[0])
	}
}

func TestShare(t *testing.T) {
	s := MustNew([]float64{1, 3})
	if got := s.Share(0); got != 0.25 {
		t.Errorf("Share = %v", got)
	}
	s.Credit(0, 1, 1)
	if got := s.Share(0); !closeTo(got, 1.25/2) {
		t.Errorf("Share after credit = %v", got)
	}
}

func TestCheckInvariants(t *testing.T) {
	s := MustNew(TwoMiner(0.5))
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("fresh state invalid: %v", err)
	}
	s.Stakes[0] = -1
	if err := s.CheckInvariants(); err == nil {
		t.Error("negative stake not caught")
	}
	s.Stakes[0] = math.NaN()
	if err := s.CheckInvariants(); err == nil {
		t.Error("NaN stake not caught")
	}
	s.Stakes[0] = 0.5
	s.Rewards[1] = math.Inf(1)
	if err := s.CheckInvariants(); err == nil {
		t.Error("Inf reward not caught")
	}
	s.Rewards[1] = 0
	s.Stakes[0], s.Stakes[1] = 0, 0
	if err := s.CheckInvariants(); err == nil {
		t.Error("all-zero stakes not caught")
	}
}

func TestClone(t *testing.T) {
	s := MustNew(TwoMiner(0.2), WithWithholding(10))
	s.Credit(0, 0.01, 0.01)
	s.EndBlock()
	c := s.Clone()
	c.Credit(1, 5, 5)
	c.EndBlock()
	if s.Rewards[1] != 0 {
		t.Error("clone shares reward slice with original")
	}
	if s.Blocks != 1 || c.Blocks != 2 {
		t.Errorf("blocks: orig %d clone %d", s.Blocks, c.Blocks)
	}
	if c.PendingStake(0) != s.PendingStake(0) {
		t.Error("pending stake not copied")
	}
}

func TestEqualShares(t *testing.T) {
	s := MustNew(EqualShares(5))
	for i := 0; i < 5; i++ {
		if !closeTo(s.Initial[i], 0.2) {
			t.Errorf("Initial[%d] = %v", i, s.Initial[i])
		}
	}
}

func TestLeaderAndPack(t *testing.T) {
	shares := LeaderAndPack(0.2, 10)
	if shares[0] != 0.2 {
		t.Errorf("leader = %v", shares[0])
	}
	for i := 1; i < 10; i++ {
		if !closeTo(shares[i], 0.8/9) {
			t.Errorf("pack[%d] = %v", i, shares[i])
		}
	}
	mustPanic(t, func() { LeaderAndPack(0, 5) })
	mustPanic(t, func() { LeaderAndPack(0.5, 1) })
}

func TestTwoMinerPanics(t *testing.T) {
	mustPanic(t, func() { TwoMiner(0) })
	mustPanic(t, func() { TwoMiner(1) })
}

// Property: Credit preserves invariants for arbitrary positive rewards.
func TestQuickCreditKeepsInvariants(t *testing.T) {
	f := func(rewards []uint8) bool {
		s := MustNew(TwoMiner(0.3))
		for i, r := range rewards {
			s.Credit(i%2, float64(r)/255, float64(r)/255)
			s.EndBlock()
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: withholding never changes λ, only the timing of stake.
func TestQuickWithholdingLambdaInvariant(t *testing.T) {
	f := func(rewards []uint8, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		a := MustNew(TwoMiner(0.3))
		b := MustNew(TwoMiner(0.3), WithWithholding(k))
		for i, r := range rewards {
			w := float64(r) / 255
			a.Credit(i%2, w, w)
			a.EndBlock()
			b.Credit(i%2, w, w)
			b.EndBlock()
		}
		la, lb := a.Lambda(0), b.Lambda(0)
		if math.IsNaN(la) && math.IsNaN(lb) {
			return true
		}
		return closeTo(la, lb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func closeTo(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
