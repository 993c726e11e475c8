// Package scenario defines the declarative fairness-scenario
// specification the sweep engine runs on: a protocol name plus its
// parameters, an initial stake split, a horizon, a trial count and the
// fairness (ε, δ) — everything needed to reproduce one Monte-Carlo
// fairness evaluation from a JSON document.
//
// Specs are canonicalised (Normalized), checked (Validate), content-hashed
// for caching and reproducibility (Hash), and expanded from sweep axes
// into concrete scenario lists (Grid.Expand). The hash covers the
// canonical form, so the two equivalent ways to state a stake split — an
// explicit Stakes vector, or the Stake/Miners leader-and-pack sugar —
// hash identically.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"

	"repro/internal/attack"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// ErrSpec reports an invalid scenario specification.
var ErrSpec = errors.New("scenario: invalid spec")

// Spec is one declarative fairness scenario. The zero value of most
// fields means "use the paper's default" (see Normalized).
type Spec struct {
	// Name is an optional human label; it does not affect the hash.
	Name string `json:"name,omitempty"`

	// Protocol names the incentive model: pow, mlpos, slpos, fslpos,
	// cpos, neo, algorand, eos or hybrid (case- and dash-insensitive).
	Protocol string `json:"protocol"`

	// W is the block/proposer reward (default 0.01, the paper's w).
	W float64 `json:"w,omitempty"`
	// V is the inflation reward for C-PoS/EOS/Algorand (default 0.1).
	V float64 `json:"v,omitempty"`
	// Alpha is the hybrid model's fixed-resource weight (default 0.5).
	Alpha float64 `json:"alpha,omitempty"`
	// Shards is the C-PoS shard count P (default 32, Ethereum 2.0).
	Shards int `json:"shards,omitempty"`

	// Stakes is the explicit initial allocation. When empty, the
	// Stake/Miners sugar below is materialised into a leader-and-pack
	// split.
	Stakes []float64 `json:"stakes,omitempty"`
	// Stake is the tracked miner's initial share when Stakes is empty
	// (default 0.2, the paper's a).
	Stake float64 `json:"stake,omitempty"`
	// Miners is the miner count when Stakes is empty (default 2).
	Miners int `json:"miners,omitempty"`
	// Miner is the index of the tracked miner (default 0).
	Miner int `json:"miner,omitempty"`

	// Blocks is the horizon in blocks/epochs (default 5000).
	Blocks int `json:"blocks,omitempty"`
	// Trials is the Monte-Carlo trial count (default 1000).
	Trials int `json:"trials,omitempty"`
	// Seed is the base RNG seed (default 1); trial i of the run uses
	// rng.Stream(Seed, i).
	Seed uint64 `json:"seed,omitempty"`
	// Checkpoints are the block counts at which λ is recorded; empty
	// means the final horizon only.
	Checkpoints []int `json:"checkpoints,omitempty"`

	// WithholdEvery applies the Section 6.3 reward-withholding treatment
	// with period k when > 0.
	WithholdEvery int `json:"withhold_every,omitempty"`

	// Adversary, when present, makes one miner deviate strategically from
	// the protocol with a registered attack strategy (see Adversary).
	Adversary *Adversary `json:"adversary,omitempty"`
	// Network, when present, models imperfect block propagation: a
	// per-height fork rate in the Sakurai–Shudo style (PoW only).
	Network *Network `json:"network,omitempty"`

	// Eps and Delta are the robust-fairness parameters (default 0.1).
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
}

// Adversary declares one strategically deviating miner. The paper's
// fairness notions assume honest execution; an adversary block asks how
// far a deviation bends λ away from the deviator's resource share a.
//
// Strategy is an open enum keyed into the internal/attack registry
// (StrategyNames lists the registered set): "honest", "selfish"
// (rational Eyal–Sirer withholding, PoW), "selfish-delay" (committed
// withholding with a publish-delay cap, PoW) and "withhold" (per-miner
// reward withholding, the compounding PoS models). Each strategy
// consumes its own parameter subset — gamma for the race strategies,
// delay for selfish-delay, every for withhold — and normalisation
// clears the rest, exactly like protocol parameters, so equivalent
// specs share one canonical form and one hash.
type Adversary struct {
	// Strategy names the deviation (case- and separator-insensitive);
	// unknown names fail validation with an UnknownStrategyError listing
	// the registered strategies.
	Strategy string `json:"strategy"`
	// Miner is the index of the deviating miner (default 0, the tracked
	// miner).
	Miner int `json:"miner,omitempty"`
	// Gamma is a race strategy's network advantage: the fraction of
	// honest power that mines on the attacker's branch during a 1-vs-1
	// fork race, in [0, 1].
	Gamma float64 `json:"gamma,omitempty"`
	// Delay is selfish-delay's publish-delay cap: the private lead at
	// which the whole branch is published (0 = uncapped classic
	// withholding, 1 = behaviourally honest).
	Delay int `json:"delay,omitempty"`
	// Every is withhold's restake period: the deviator's rewards join
	// her staking power only at multiples of Every blocks (0 = never).
	Every int `json:"every,omitempty"`
}

// Network declares imperfect block propagation. Sakurai & Shudo ("The
// Rich Get Richer in Bitcoin Mining Induced by Blockchain Forks") show
// that fork races systematically favour large miners, because a miner
// always mines on its own candidate block and wins races in proportion
// to its power; ForkRate is the knob that turns that effect on.
type Network struct {
	// ForkRate is the probability, per chain height, that a second
	// concurrent block contests the height and a fork race resolves it,
	// in [0, 1).
	ForkRate float64 `json:"fork_rate,omitempty"`
}

// Canonical adversary strategy names, re-exported from the
// internal/attack registry.
const (
	StrategyHonest       = attack.StrategyHonest
	StrategySelfish      = attack.StrategySelfish
	StrategySelfishDelay = attack.StrategySelfishDelay
	StrategyWithhold     = attack.StrategyWithhold
)

// StrategyNames returns the sorted canonical names of the registered
// adversary strategies — the open enum Adversary.Strategy validates
// against.
func StrategyNames() []string { return attack.Names() }

// knownProtocols maps canonical protocol names to constructors.
var knownProtocols = map[string]func(Spec) protocol.Protocol{
	"pow":      func(s Spec) protocol.Protocol { return protocol.NewPoW(s.W) },
	"mlpos":    func(s Spec) protocol.Protocol { return protocol.NewMLPoS(s.W) },
	"slpos":    func(s Spec) protocol.Protocol { return protocol.NewSLPoS(s.W) },
	"fslpos":   func(s Spec) protocol.Protocol { return protocol.NewFSLPoS(s.W) },
	"cpos":     func(s Spec) protocol.Protocol { return protocol.NewCPoS(s.W, s.V, s.Shards) },
	"neo":      func(s Spec) protocol.Protocol { return protocol.NewNEO(s.W) },
	"algorand": func(s Spec) protocol.Protocol { return protocol.NewAlgorand(s.V) },
	"eos":      func(s Spec) protocol.Protocol { return protocol.NewEOS(s.W, s.V) },
	"hybrid":   func(s Spec) protocol.Protocol { return protocol.NewHybrid(s.W, s.Alpha) },
}

// ProtocolNames returns the canonical protocol names accepted in specs.
func ProtocolNames() []string {
	return []string{"pow", "mlpos", "slpos", "fslpos", "cpos", "neo", "algorand", "eos", "hybrid"}
}

// protocolSeparators strips the separators CanonicalProtocol ignores. A
// Replacer is safe for concurrent use, and building one costs more than
// applying it, so every call shares this one.
var protocolSeparators = strings.NewReplacer("-", "", "_", "", " ", "")

// CanonicalProtocol lower-cases a protocol name and strips separators, so
// "ML-PoS", "ml_pos" and "mlpos" all canonicalise to "mlpos".
func CanonicalProtocol(name string) string {
	return protocolSeparators.Replace(strings.ToLower(name))
}

// Normalized returns the canonical form of the spec: defaults applied,
// protocol name canonicalised and the Stake/Miners sugar materialised into
// an explicit Stakes vector. Hashing and execution both operate on the
// normalised form.
func (s Spec) Normalized() Spec {
	n := s
	n.Protocol = CanonicalProtocol(s.Protocol)
	if n.W == 0 {
		n.W = 0.01
	}
	if n.V == 0 && (n.Protocol == "cpos" || n.Protocol == "eos" || n.Protocol == "algorand") {
		n.V = 0.1
	}
	if n.Alpha == 0 && n.Protocol == "hybrid" {
		n.Alpha = 0.5
	}
	if n.Shards == 0 && n.Protocol == "cpos" {
		n.Shards = 32
	}
	// Clear parameters the protocol does not consume, so specs that
	// describe the same computation share one canonical form — and
	// therefore one hash, one derived seed and one cache entry.
	switch n.Protocol {
	case "pow", "mlpos", "slpos", "fslpos", "neo":
		n.V, n.Alpha, n.Shards = 0, 0, 0
	case "cpos":
		n.Alpha = 0
	case "eos":
		n.Alpha, n.Shards = 0, 0
	case "algorand":
		n.W, n.Alpha, n.Shards = 0, 0, 0
	case "hybrid":
		n.V, n.Shards = 0, 0
	}
	if len(n.Stakes) == 0 {
		stake := n.Stake
		if stake == 0 {
			stake = 0.2
		}
		miners := n.Miners
		if miners == 0 {
			miners = 2
		}
		if stake > 0 && stake < 1 && miners >= 2 {
			stakes := make([]float64, miners)
			stakes[0] = stake
			for i := 1; i < miners; i++ {
				stakes[i] = (1 - stake) / float64(miners-1)
			}
			n.Stakes = stakes
		}
	}
	// The sugar fields are redundant once Stakes is explicit; clear them
	// so both input forms share one canonical encoding (and one hash).
	n.Stake = 0
	n.Miners = 0
	if n.Blocks == 0 {
		n.Blocks = 5000
	}
	if n.Trials == 0 {
		n.Trials = 1000
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if len(n.Checkpoints) == 0 {
		n.Checkpoints = []int{n.Blocks}
	}
	// Clone the adversary/network blocks so normalising never mutates the
	// caller's spec, and collapse the zero fork rate — a nil network
	// block and fork_rate 0 both mean "perfect network" and must share
	// one canonical encoding (and one hash). A deviating adversary block
	// is NEVER collapsed: a present-but-empty strategy is a validation
	// error, not an honest run — silently dropping it would report honest
	// numbers for a spec that asked for an attack. The null deviation
	// "honest" IS collapsed (once its miner index is in range), because
	// it names exactly the honest computation and must share its hash,
	// seed and cache entry — that is what lets strategy grid axes include
	// the honest baseline for free.
	if s.Adversary != nil {
		a := *s.Adversary
		a.Strategy = attack.CanonicalStrategy(a.Strategy)
		n.Adversary = &a
		if strat, ok := attack.Lookup(a.Strategy); ok {
			// Clear parameters the strategy does not consume, exactly
			// like protocol parameters above.
			use := strat.Uses()
			if !use.Gamma {
				a.Gamma = 0
			}
			if !use.Delay {
				a.Delay = 0
			}
			if !use.Every {
				a.Every = 0
			}
			if strat.Kind() == attack.KindHonest && a.Miner >= 0 && a.Miner < len(n.Stakes) {
				n.Adversary = nil
			}
		}
	}
	if s.Network != nil {
		if s.Network.ForkRate == 0 {
			n.Network = nil
		} else {
			nw := *s.Network
			n.Network = &nw
		}
	}
	if n.Eps == 0 {
		n.Eps = 0.1
	}
	if n.Delta == 0 {
		n.Delta = 0.1
	}
	return n
}

// Validate checks the normalised form of the spec and returns a
// descriptive error wrapping ErrSpec on the first violation.
func (s Spec) Validate() error {
	n := s.Normalized()
	if _, ok := knownProtocols[n.Protocol]; !ok {
		return fmt.Errorf("%w: unknown protocol %q (known: %s)",
			ErrSpec, s.Protocol, strings.Join(ProtocolNames(), ", "))
	}
	if n.Protocol != "algorand" && (n.W <= 0 || math.IsNaN(n.W) || math.IsInf(n.W, 0)) {
		return fmt.Errorf("%w: w = %v, need > 0", ErrSpec, n.W)
	}
	if n.V < 0 || math.IsNaN(n.V) || math.IsInf(n.V, 0) {
		return fmt.Errorf("%w: v = %v, need >= 0", ErrSpec, n.V)
	}
	if n.Protocol == "algorand" && n.V <= 0 {
		return fmt.Errorf("%w: algorand needs v > 0", ErrSpec)
	}
	if n.Protocol == "hybrid" && (n.Alpha < 0 || n.Alpha > 1 || math.IsNaN(n.Alpha)) {
		return fmt.Errorf("%w: hybrid alpha = %v, need [0, 1]", ErrSpec, n.Alpha)
	}
	if n.Protocol == "cpos" && n.Shards < 1 {
		return fmt.Errorf("%w: cpos shards = %d, need >= 1", ErrSpec, n.Shards)
	}
	if len(n.Stakes) < 2 {
		// Diagnose why the leader-and-pack sugar failed to materialise.
		if len(s.Stakes) == 0 && s.Stake != 0 && !(s.Stake > 0 && s.Stake < 1) {
			return fmt.Errorf("%w: stake = %v, need 0 < stake < 1", ErrSpec, s.Stake)
		}
		if len(s.Stakes) == 0 && s.Miners != 0 && s.Miners < 2 {
			return fmt.Errorf("%w: miners = %d, need >= 2", ErrSpec, s.Miners)
		}
		return fmt.Errorf("%w: need at least 2 miners (stake=%v, miners=%d)", ErrSpec, s.Stake, s.Miners)
	}
	for i, v := range n.Stakes {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: stakes[%d] = %v, need positive and finite", ErrSpec, i, v)
		}
	}
	if n.Miner < 0 || n.Miner >= len(n.Stakes) {
		return fmt.Errorf("%w: miner = %d with %d miners", ErrSpec, n.Miner, len(n.Stakes))
	}
	if n.Blocks <= 0 {
		return fmt.Errorf("%w: blocks = %d", ErrSpec, n.Blocks)
	}
	if n.Trials <= 0 {
		return fmt.Errorf("%w: trials = %d", ErrSpec, n.Trials)
	}
	prev := 0
	for _, c := range n.Checkpoints {
		if c <= prev || c > n.Blocks {
			return fmt.Errorf("%w: checkpoints must be strictly increasing in (0, %d], got %v",
				ErrSpec, n.Blocks, n.Checkpoints)
		}
		prev = c
	}
	if n.WithholdEvery < 0 {
		return fmt.Errorf("%w: withhold_every = %d", ErrSpec, n.WithholdEvery)
	}
	if err := n.validateAdversaryNetwork(); err != nil {
		return err
	}
	if n.Eps <= 0 || math.IsNaN(n.Eps) {
		return fmt.Errorf("%w: eps = %v", ErrSpec, n.Eps)
	}
	if n.Delta <= 0 || n.Delta >= 1 || math.IsNaN(n.Delta) {
		return fmt.Errorf("%w: delta = %v, need (0, 1)", ErrSpec, n.Delta)
	}
	return nil
}

// UnknownStrategyError reports an adversary strategy outside the
// registered set. It unwraps to ErrSpec; Known lists the registry, so
// callers (and users) see exactly which strategies exist.
type UnknownStrategyError struct {
	// Strategy is the canonicalised name that failed to resolve.
	Strategy string
	// Known lists the registered strategy names.
	Known []string
}

// Error implements error.
func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("%v: unknown adversary strategy %q (registered: %s)",
		ErrSpec, e.Strategy, strings.Join(e.Known, ", "))
}

// Unwrap makes errors.Is(err, ErrSpec) hold.
func (e *UnknownStrategyError) Unwrap() error { return ErrSpec }

// BlockConflict is one violated exclusivity rule between spec blocks,
// naming every block involved.
type BlockConflict struct {
	// Blocks are the conflicting spec blocks, e.g. "adversary(withhold@0)"
	// and "protocol(pow)".
	Blocks []string `json:"blocks"`
	// Reason states the rule the combination violates.
	Reason string `json:"reason"`
}

// ConflictError aggregates every violated cross-block rule of a spec
// into one error: each conflict names both (all) blocks involved, so a
// spec combining, say, an adversary with a network block on a PoS
// protocol reports the full picture at once instead of failing field by
// field. It unwraps to ErrSpec.
type ConflictError struct {
	Conflicts []BlockConflict
}

// Error implements error.
func (e *ConflictError) Error() string {
	parts := make([]string, len(e.Conflicts))
	for i, c := range e.Conflicts {
		parts[i] = fmt.Sprintf("%s: %s", strings.Join(c.Blocks, " vs "), c.Reason)
	}
	return fmt.Sprintf("%v: conflicting blocks — %s", ErrSpec, strings.Join(parts, "; "))
}

// Unwrap makes errors.Is(err, ErrSpec) hold.
func (e *ConflictError) Unwrap() error { return ErrSpec }

// validateAdversaryNetwork checks the adversary and network blocks of an
// already-normalised spec. Strategy applicability is capability-driven:
// the internal/attack registry declares each strategy's protocols and
// validates its parameters, so growing the strategy set never touches
// this function. Cross-block exclusivity violations are aggregated into
// one ConflictError naming every side.
func (n Spec) validateAdversaryNetwork() error {
	var conflicts []BlockConflict
	protoBlock := fmt.Sprintf("protocol(%s)", n.Protocol)
	if nw := n.Network; nw != nil && n.Protocol != "pow" {
		conflicts = append(conflicts, BlockConflict{
			Blocks: []string{fmt.Sprintf("network(fork_rate=%g)", nw.ForkRate), protoBlock},
			Reason: "the network block models PoW fork races",
		})
	}
	adv := n.Adversary
	var strat attack.Strategy
	if adv != nil {
		var ok bool
		if strat, ok = attack.Lookup(adv.Strategy); !ok {
			return &UnknownStrategyError{Strategy: adv.Strategy, Known: attack.Names()}
		}
		advBlock := fmt.Sprintf("adversary(%s@%d)", adv.Strategy, adv.Miner)
		if ps := strat.Protocols(); ps != nil && !slices.Contains(ps, n.Protocol) {
			conflicts = append(conflicts, BlockConflict{
				Blocks: []string{advBlock, protoBlock},
				Reason: fmt.Sprintf("strategy %q applies to: %s", adv.Strategy, strings.Join(ps, ", ")),
			})
		}
		if nw := n.Network; nw != nil {
			conflicts = append(conflicts, BlockConflict{
				Blocks: []string{advBlock, fmt.Sprintf("network(fork_rate=%g)", nw.ForkRate)},
				Reason: "mutually exclusive: a race strategy's gamma already models the network advantage",
			})
		}
		if n.WithholdEvery > 0 {
			conflicts = append(conflicts, BlockConflict{
				Blocks: []string{advBlock, fmt.Sprintf("withhold_every(%d)", n.WithholdEvery)},
				Reason: "the global withholding treatment cannot be combined with an adversary",
			})
		}
	}
	if len(conflicts) > 0 {
		return &ConflictError{Conflicts: conflicts}
	}
	if nw := n.Network; nw != nil {
		if !(nw.ForkRate > 0 && nw.ForkRate < 1) || math.IsNaN(nw.ForkRate) {
			return fmt.Errorf("%w: network.fork_rate = %v, need [0, 1)", ErrSpec, nw.ForkRate)
		}
	}
	if adv == nil {
		return nil
	}
	if adv.Miner < 0 || adv.Miner >= len(n.Stakes) {
		return fmt.Errorf("%w: adversary.miner = %d with %d miners", ErrSpec, adv.Miner, len(n.Stakes))
	}
	total := 0.0
	for _, v := range n.Stakes {
		total += v
	}
	p := attack.Params{
		Share: n.Stakes[adv.Miner] / total,
		Gamma: adv.Gamma, Delay: adv.Delay, Every: adv.Every,
	}
	if err := strat.Validate(p); err != nil {
		return fmt.Errorf("%w: adversary %q: %v", ErrSpec, adv.Strategy, err)
	}
	return nil
}

// Build constructs the protocol instance the normalised spec names.
func (s Spec) Build() (protocol.Protocol, error) {
	n := s.Normalized()
	ctor, ok := knownProtocols[n.Protocol]
	if !ok {
		return nil, fmt.Errorf("%w: unknown protocol %q", ErrSpec, s.Protocol)
	}
	return ctor(n), nil
}

// TrackedShare returns the tracked miner's initial resource share — the
// `a` both fairness notions are stated against.
func (s Spec) TrackedShare() float64 {
	n := s.Normalized()
	total := 0.0
	for _, v := range n.Stakes {
		total += v
	}
	if total <= 0 || n.Miner < 0 || n.Miner >= len(n.Stakes) {
		return math.NaN()
	}
	return n.Stakes[n.Miner] / total
}

// Hash returns the canonical content hash of the spec: the SHA-256 of the
// normalised JSON encoding (Name excluded), hex-encoded. Two specs that
// describe the same computation — regardless of input sugar, labels or
// field ordering in their JSON source — share a hash, which is the sweep
// cache key.
func (s Spec) Hash() (string, error) {
	n := s.Normalized()
	n.Name = ""
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// MustHash is Hash for known-good specs; it panics on error.
func (s Spec) MustHash() string {
	h, err := s.Hash()
	if err != nil {
		panic(err)
	}
	return h
}

// DeriveSeed returns a deterministic per-scenario seed from a base sweep
// seed and the scenario's parameter content (its seed-independent hash).
// Derivation goes through rng.Stream, so distinct scenarios receive
// decorrelated streams, and the same scenario receives the same seed in
// every sweep that shares the base — which is what lets overlapping
// sweeps hit the result cache.
func DeriveSeed(base uint64, s Spec) uint64 {
	n := s.Normalized()
	n.Name = ""
	n.Seed = 0
	b, err := json.Marshal(n)
	if err != nil {
		// Spec structs always marshal; keep the signature hashable anyway.
		b = []byte(fmt.Sprintf("%+v", n))
	}
	h := fnv.New32a()
	h.Write(b)
	return rng.Stream(base, int(h.Sum32()&0x7fffffff)).Uint64()
}

// Decode parses one spec from JSON, rejecting unknown fields so typos in
// hand-written scenario files fail loudly.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return s, nil
}

// DecodeList parses a JSON array of specs with the same strictness.
func DecodeList(data []byte) ([]Spec, error) {
	var list []Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&list); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return list, nil
}

// String renders a compact one-line description of the normalised spec.
func (s Spec) String() string {
	n := s.Normalized()
	var b strings.Builder
	b.WriteString(n.Protocol)
	if n.Protocol != "algorand" {
		fmt.Fprintf(&b, " w=%g", n.W)
	}
	if n.Protocol == "cpos" || n.Protocol == "eos" || n.Protocol == "algorand" {
		fmt.Fprintf(&b, " v=%g", n.V)
	}
	if n.Protocol == "cpos" {
		fmt.Fprintf(&b, " P=%d", n.Shards)
	}
	if n.Protocol == "hybrid" {
		fmt.Fprintf(&b, " alpha=%g", n.Alpha)
	}
	fmt.Fprintf(&b, " a=%.3f m=%d n=%d trials=%d", s.TrackedShare(), len(n.Stakes), n.Blocks, n.Trials)
	if n.WithholdEvery > 0 {
		fmt.Fprintf(&b, " withhold=%d", n.WithholdEvery)
	}
	if n.Adversary != nil {
		fmt.Fprintf(&b, " %s@%d gamma=%g", n.Adversary.Strategy, n.Adversary.Miner, n.Adversary.Gamma)
		if n.Adversary.Delay > 0 {
			fmt.Fprintf(&b, " delay=%d", n.Adversary.Delay)
		}
		if n.Adversary.Every > 0 {
			fmt.Fprintf(&b, " every=%d", n.Adversary.Every)
		}
	}
	if n.Network != nil {
		fmt.Fprintf(&b, " fork=%g", n.Network.ForkRate)
	}
	return b.String()
}
