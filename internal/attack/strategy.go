package attack

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// This file is the pluggable face of the package: a registry of named
// adversary strategies the scenario vocabulary, the sweep backends and
// the best-response arena all key off. PR 4 hard-coded exactly one
// deviation (rational Eyal–Sirer selfish mining); the registry turns
// that into an open, validated set — each Strategy declares the
// protocols it applies to, the parameters it consumes, whether a given
// parameterisation actually deviates from honest play, and (for PoW
// race strategies) how to build its steppable simulation.

// Kind classifies how a strategy executes inside the backends.
type Kind int

const (
	// KindHonest marks protocol-following play (the null deviation).
	KindHonest Kind = iota
	// KindPoWRace marks longest-chain withholding strategies that run as
	// a steppable block-discovery race (RaceSim) against an honest pool.
	KindPoWRace
	// KindStakeWithhold marks PoS strategies that defer the staking
	// effect of the deviator's own rewards inside the ordinary mining
	// game (per-miner reward withholding).
	KindStakeWithhold
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindHonest:
		return "honest"
	case KindPoWRace:
		return "pow-race"
	case KindStakeWithhold:
		return "stake-withhold"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Params is the flattened parameter set of one deviating miner. Every
// strategy reads the subset it declares in Uses; the scenario
// normaliser clears the rest so equivalent specs share one canonical
// form.
type Params struct {
	// Share is the deviator's resource share in (0, 1).
	Share float64
	// Gamma is the network advantage of a race strategy in [0, 1].
	Gamma float64
	// Delay is the publish-delay lead cap of selfish-delay: the private
	// lead at which the whole branch is published. 0 = uncapped
	// (classic Eyal–Sirer withholding), 1 = publish immediately
	// (honest behaviour).
	Delay int
	// Every is the restake period of withhold: the deviator's rewards
	// join her staking power only at multiples of Every blocks.
	// 0 = never restake (the strongest form).
	Every int
}

// ParamUse declares which Params fields a strategy consumes. The
// scenario normaliser zeroes unconsumed fields — exactly like protocol
// parameters — so specs that describe the same computation share one
// hash and one cache entry.
type ParamUse struct {
	Gamma bool
	Delay bool
	Every bool
}

// RaceSim is a steppable PoW block-discovery race: one event per Step,
// with Snapshot settling in-flight state into a main-chain Result. The
// classic selfish-mining Sim implements it.
type RaceSim interface {
	Step(r *rng.Rand)
	Snapshot() Result
}

// Strategy is one pluggable adversary strategy.
type Strategy interface {
	// Name is the canonical registry name ("honest", "selfish", ...).
	Name() string
	// Kind classifies the execution model.
	Kind() Kind
	// Protocols lists the canonical scenario protocol names the strategy
	// applies to; nil means every protocol.
	Protocols() []string
	// Uses declares the parameters the strategy consumes.
	Uses() ParamUse
	// Validate checks a parameterisation, wrapping ErrParams.
	Validate(p Params) error
	// Deviates reports whether the parameterisation actually departs
	// from honest play. Rational strategies (selfish) answer false when
	// honest play dominates; committed strategies answer from their
	// parameters alone.
	Deviates(p Params) bool
	// NewRaceSim builds the steppable race simulation of a KindPoWRace
	// strategy; other kinds return ErrParams.
	NewRaceSim(p Params) (RaceSim, error)
}

// Canonical strategy names.
const (
	StrategyHonest       = "honest"
	StrategySelfish      = "selfish"
	StrategySelfishDelay = "selfish-delay"
	StrategyWithhold     = "withhold"
)

// registry maps lookup keys (canonicalised names) to strategies. It is
// populated at init time and read-only afterwards, so lookups need no
// locking.
var registry = map[string]Strategy{}

// strategyKey canonicalises a strategy name for lookup: lower-cased
// with separators stripped, so "Selfish-Delay", "selfish_delay" and
// "selfishdelay" all find the same entry.
func strategyKey(name string) string {
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'A' && c <= 'Z':
			b = append(b, c+'a'-'A')
		case c == '-' || c == '_' || c == ' ':
		default:
			b = append(b, c)
		}
	}
	return string(b)
}

// Register adds a strategy to the registry. It panics on a duplicate
// key — registration happens in init, so a collision is a programming
// error, not a runtime condition.
func Register(s Strategy) {
	key := strategyKey(s.Name())
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("attack: duplicate strategy %q", s.Name()))
	}
	registry[key] = s
}

// Lookup resolves a strategy name (case- and separator-insensitive).
func Lookup(name string) (Strategy, bool) {
	s, ok := registry[strategyKey(name)]
	return s, ok
}

// CanonicalStrategy returns the registry's canonical spelling of a
// strategy name when it is registered, and the canonicalised lookup key
// otherwise (so unknown names still normalise deterministically and the
// validation error shows what was looked up).
func CanonicalStrategy(name string) string {
	if s, ok := Lookup(name); ok {
		return s.Name()
	}
	return strategyKey(name)
}

// Names returns the sorted canonical names of all registered
// strategies — the list unknown-strategy errors print.
func Names() []string {
	names := make([]string, 0, len(registry))
	for _, s := range registry {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(honestStrategy{})
	Register(selfishStrategy{})
	Register(selfishDelayStrategy{})
	Register(withholdStrategy{})
}

// posProtocols are the compounding PoS models where deferring the
// staking effect of rewards changes the game at all.
var posProtocols = []string{"mlpos", "slpos", "fslpos", "cpos"}

// honestStrategy is the null deviation: protocol-following play on
// every protocol. It exists so strategy grids and the arena can sweep
// "no attack" through the same axis as real deviations.
type honestStrategy struct{}

func (honestStrategy) Name() string        { return StrategyHonest }
func (honestStrategy) Kind() Kind          { return KindHonest }
func (honestStrategy) Protocols() []string { return nil }
func (honestStrategy) Uses() ParamUse      { return ParamUse{} }
func (honestStrategy) Validate(p Params) error {
	if !(p.Share > 0 && p.Share < 1) {
		return fmt.Errorf("%w: honest share = %v, need (0, 1)", ErrParams, p.Share)
	}
	return nil
}
func (honestStrategy) Deviates(Params) bool { return false }
func (honestStrategy) NewRaceSim(Params) (RaceSim, error) {
	return nil, fmt.Errorf("%w: honest is not a race strategy", ErrParams)
}

// selfishStrategy is rational Eyal–Sirer selfish mining, exactly as PR 4
// shipped it: the miner runs the withholding state machine only when its
// closed-form revenue beats honest mining, and mines honestly below the
// profitability threshold (1−γ)/(3−2γ).
type selfishStrategy struct{}

func (selfishStrategy) Name() string        { return StrategySelfish }
func (selfishStrategy) Kind() Kind          { return KindPoWRace }
func (selfishStrategy) Protocols() []string { return []string{"pow"} }
func (selfishStrategy) Uses() ParamUse      { return ParamUse{Gamma: true} }
func (selfishStrategy) Validate(p Params) error {
	return SelfishMining{Alpha: p.Share, Gamma: p.Gamma}.Validate()
}
func (selfishStrategy) Deviates(p Params) bool {
	profitable, err := SelfishMining{Alpha: p.Share, Gamma: p.Gamma}.BreaksExpectationalFairness()
	return err == nil && profitable
}
func (selfishStrategy) NewRaceSim(p Params) (RaceSim, error) {
	return SelfishMining{Alpha: p.Share, Gamma: p.Gamma}.NewSim()
}

// selfishDelayStrategy is the committed, publish-delay variant: the
// miner always withholds, publishing the whole private branch once its
// lead reaches Delay (0 = uncapped). Unlike `selfish` it does not
// collapse to honest below the profitability threshold — delay=1 is the
// only honest parameterisation — which is what makes it a usable
// best-response candidate in the arena.
type selfishDelayStrategy struct{}

func (selfishDelayStrategy) Name() string        { return StrategySelfishDelay }
func (selfishDelayStrategy) Kind() Kind          { return KindPoWRace }
func (selfishDelayStrategy) Protocols() []string { return []string{"pow"} }
func (selfishDelayStrategy) Uses() ParamUse      { return ParamUse{Gamma: true, Delay: true} }
func (selfishDelayStrategy) Validate(p Params) error {
	return DelayedSelfish{SelfishMining: SelfishMining{Alpha: p.Share, Gamma: p.Gamma}, Delay: p.Delay}.validate()
}
func (selfishDelayStrategy) Deviates(p Params) bool { return p.Delay != 1 }
func (selfishDelayStrategy) NewRaceSim(p Params) (RaceSim, error) {
	return DelayedSelfish{SelfishMining: SelfishMining{Alpha: p.Share, Gamma: p.Gamma}, Delay: p.Delay}.NewSim()
}

// withholdStrategy defers the staking effect of the deviator's own
// rewards (game.WithMinerWithholding): income still counts toward λ
// immediately, but compounds into staking power only at multiples of
// Every blocks — never, when Every is 0. It applies to the compounding
// PoS models; on PoW rewards convey no stake, so there is nothing to
// withhold.
type withholdStrategy struct{}

func (withholdStrategy) Name() string        { return StrategyWithhold }
func (withholdStrategy) Kind() Kind          { return KindStakeWithhold }
func (withholdStrategy) Protocols() []string { return posProtocols }
func (withholdStrategy) Uses() ParamUse      { return ParamUse{Every: true} }
func (withholdStrategy) Validate(p Params) error {
	if !(p.Share > 0 && p.Share < 1) {
		return fmt.Errorf("%w: withhold share = %v, need (0, 1)", ErrParams, p.Share)
	}
	if p.Every < 0 {
		return fmt.Errorf("%w: withhold every = %d, need >= 0", ErrParams, p.Every)
	}
	return nil
}
func (withholdStrategy) Deviates(Params) bool { return true }
func (withholdStrategy) NewRaceSim(Params) (RaceSim, error) {
	return nil, fmt.Errorf("%w: withhold is not a race strategy", ErrParams)
}
