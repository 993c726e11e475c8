// Package game holds the state of a mining game: the competing resource
// each miner currently controls, the rewards she has accumulated, and the
// reward-fraction λ the paper's fairness definitions are stated over.
//
// The model follows Section 3.1 of the paper: initial resources are
// normalised to sum to 1, rewards per block/epoch are constant, and miners
// take no action beyond mining (no withdrawal or top-up). Reward
// withholding (Section 6.3) is supported natively: rewards always count
// toward λ immediately, but their contribution to future staking power can
// be deferred to the next multiple-of-K block.
package game

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInitial reports invalid initial resource shares.
var ErrBadInitial = errors.New("game: initial shares must be positive and finite")

// State is the mutable state of one mining game. It is not safe for
// concurrent use; Monte-Carlo trials each own a State.
type State struct {
	// Stakes is each miner's current competing resource: hash power for
	// PoW (never mutated), staking power for PoS models.
	Stakes []float64
	// Rewards is each miner's cumulative reward, the numerator of λ.
	Rewards []float64
	// Initial is each miner's normalised initial share (sums to 1).
	Initial []float64
	// Blocks counts completed steps (blocks, or epochs for C-PoS/EOS).
	Blocks int

	withholdEvery int
	pending       []float64
	// minerWithhold overrides the global withholding period per miner:
	// period > 0 releases at multiples of period, period <= 0 withholds
	// forever. The map is set once at construction and read-only after,
	// so clones and batch states share it.
	minerWithhold map[int]int
}

// Option configures a new game State.
type Option func(*State)

// WithWithholding defers the staking effect of earned rewards to the next
// multiple-of-k block (Section 6.3's treatment). k <= 0 means immediate.
func WithWithholding(k int) Option {
	return func(s *State) { s.withholdEvery = k }
}

// WithMinerWithholding defers the staking effect of one miner's rewards
// only — the `withhold` adversary strategy, as opposed to
// WithWithholding's all-miner treatment. Miner i's rewards still count
// toward λ immediately but join her staking power only at multiples of
// k blocks; k <= 0 withholds them forever. Other miners keep the global
// behaviour. Repeated options accumulate, so several miners can
// withhold at once.
func WithMinerWithholding(miner, k int) Option {
	return func(s *State) {
		if s.minerWithhold == nil {
			s.minerWithhold = make(map[int]int)
		}
		s.minerWithhold[miner] = k
	}
}

// withholdPeriod resolves miner i's effective withholding period:
// 0 = stake immediately, > 0 = release at multiples, < 0 = never.
func (s *State) withholdPeriod(i int) int {
	if s.minerWithhold != nil {
		if k, ok := s.minerWithhold[i]; ok {
			if k <= 0 {
				return -1
			}
			return k
		}
	}
	if s.withholdEvery > 0 {
		return s.withholdEvery
	}
	return 0
}

// New creates a game state from the miners' initial resources, normalising
// them to sum to 1 as in the paper. It returns ErrBadInitial when shares
// are unusable (fewer than two miners, non-positive or non-finite values).
func New(initial []float64, opts ...Option) (*State, error) {
	if len(initial) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 miners, got %d", ErrBadInitial, len(initial))
	}
	total := 0.0
	for _, v := range initial {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: share %v", ErrBadInitial, v)
		}
		total += v
	}
	s := &State{
		Stakes:  make([]float64, len(initial)),
		Rewards: make([]float64, len(initial)),
		Initial: make([]float64, len(initial)),
		pending: make([]float64, len(initial)),
	}
	for i, v := range initial {
		s.Initial[i] = v / total
		s.Stakes[i] = v / total
	}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// MustNew is New for known-good shares; it panics on error. Intended for
// tests and examples.
func MustNew(initial []float64, opts ...Option) *State {
	s, err := New(initial, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumMiners returns the number of competing miners.
func (s *State) NumMiners() int { return len(s.Stakes) }

// Credit records a reward for miner i: reward counts toward λ immediately,
// stake joins the miner's staking power now or, under withholding, at the
// next release boundary. Protocols where rewards never convey staking
// power (PoW, NEO) pass stake = 0.
func (s *State) Credit(i int, reward, stake float64) {
	s.Rewards[i] += reward
	if stake == 0 {
		return
	}
	if s.withholdPeriod(i) != 0 {
		s.pending[i] += stake
		return
	}
	s.Stakes[i] += stake
}

// CreditN records n identical credits for miner i. The result is bit for
// bit that of n calls of Credit(i, reward, stake), which add to the same
// reward and stake (or withheld) balances. A balance b credited x takes
// the closed form b + n·d, with d = (b+x) − b, when that provably equals
// n additions: b + n·d has b's sign and exponent, d ≥ 0, and
// 2·|x − d| < ulp(b) (see addN). Otherwise it makes the n additions,
// keeping the running sum in a register.
func (s *State) CreditN(i, n int, reward, stake float64) {
	if n <= 0 {
		return
	}
	s.Rewards[i], _ = addN(s.Rewards[i], reward, n)
	switch {
	case stake == 0: // joins no balance, as in Credit
	case s.withholdPeriod(i) != 0:
		s.pending[i], _ = addN(s.pending[i], stake, n)
	default:
		s.Stakes[i], _ = addN(s.Stakes[i], stake, n)
	}
}

// addN returns b after n ≥ 0 additions b += x, and whether it took the
// closed form b + n·d, with d = (b+x) − b, instead of adding n times.
// It takes the closed form, which is then exact, when:
//   - b + n·d has b's sign and exponent, so both lie in one binade
//     [2^e, 2^(e+1)), or both below 2^−1022, where floats are evenly
//     spaced by one ulp. Had the first addition left the binade, or n·d
//     not been exact, the rounded b + n·d would have reached 2^(e+1);
//   - d ≥ 0, so the sum only rises. Going down, it could land on 2^e,
//     below which floats are spaced ulp/2, and round past it next time;
//   - 2·|x − d| < ulp, where ulp is the next float above b in bit order
//     less b: x lies strictly nearer d than any other multiple of ulp,
//     so each addition rounds to exactly sum + d. At a tie, round half
//     to even would pick by the parity of the sum, which alternates.
//     For a negative b this ulp is negative, for an infinite b NaN, so
//     both fail, as a NaN input fails some comparison.
func addN(b, x float64, n int) (float64, bool) {
	d := (b + x) - b
	r := b + float64(n)*d
	bits := math.Float64bits(b)
	ulp := math.Float64frombits(bits+1) - b
	if math.Float64bits(r)>>52 == bits>>52 && d >= 0 && 2*math.Abs(x-d) < ulp {
		return r, true
	}
	for ; n > 0; n-- {
		b += x
	}
	return b, false
}

// EndBlock marks one block/epoch complete and releases withheld stake
// for every miner whose withholding period divides the block count
// (miners withholding forever never release).
func (s *State) EndBlock() {
	s.Blocks++
	if s.withholdEvery <= 0 && s.minerWithhold == nil {
		return
	}
	for i, p := range s.pending {
		if p == 0 {
			continue
		}
		if k := s.withholdPeriod(i); k > 0 && s.Blocks%k == 0 {
			s.Stakes[i] += p
			s.pending[i] = 0
		}
	}
}

// PendingStake returns miner i's earned-but-not-yet-staking reward under
// withholding (always 0 without withholding).
func (s *State) PendingStake(i int) float64 { return s.pending[i] }

// TotalStake returns the sum of current staking power.
func (s *State) TotalStake() float64 {
	t := 0.0
	for _, v := range s.Stakes {
		t += v
	}
	return t
}

// TotalRewards returns the sum of all rewards issued so far.
func (s *State) TotalRewards() float64 {
	t := 0.0
	for _, v := range s.Rewards {
		t += v
	}
	return t
}

// Share returns miner i's fraction of current staking power.
func (s *State) Share(i int) float64 {
	t := s.TotalStake()
	if t <= 0 {
		return math.NaN()
	}
	return s.Stakes[i] / t
}

// Lambda returns miner i's fraction λ_i of all rewards issued so far, the
// quantity both fairness definitions are stated over. NaN before any
// reward exists.
func (s *State) Lambda(i int) float64 {
	t := s.TotalRewards()
	if t <= 0 {
		return math.NaN()
	}
	return s.Rewards[i] / t
}

// CheckInvariants verifies the structural invariants every protocol must
// maintain: non-negative finite stakes and rewards, and at least one
// positive stake. It returns a descriptive error on violation; tests and
// the Monte-Carlo harness call it under failure injection.
func (s *State) CheckInvariants() error {
	anyPositive := false
	for i, v := range s.Stakes {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("game: stake[%d] invalid: %v", i, v)
		}
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return errors.New("game: all stakes are zero")
	}
	for i, v := range s.Rewards {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("game: reward[%d] invalid: %v", i, v)
		}
	}
	for i, v := range s.pending {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("game: pending[%d] invalid: %v", i, v)
		}
	}
	return nil
}

// EqualShares returns n equal initial shares, a convenience for symmetric
// games.
func EqualShares(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// TwoMiner returns the paper's canonical two-miner initial allocation
// {a, 1-a}. It panics unless 0 < a < 1.
func TwoMiner(a float64) []float64 {
	if !(a > 0 && a < 1) {
		panic("game: TwoMiner needs 0 < a < 1")
	}
	return []float64{a, 1 - a}
}

// LeaderAndPack returns the Table 1 allocation: miner 0 holds share a and
// the remaining m-1 miners split 1-a equally. It panics unless 0 < a < 1
// and m >= 2.
func LeaderAndPack(a float64, m int) []float64 {
	if !(a > 0 && a < 1) || m < 2 {
		panic("game: LeaderAndPack needs 0 < a < 1 and m >= 2")
	}
	s := make([]float64, m)
	s[0] = a
	for i := 1; i < m; i++ {
		s[i] = (1 - a) / float64(m-1)
	}
	return s
}
