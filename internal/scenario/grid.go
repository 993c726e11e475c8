package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Grid declares a sweep over scenario axes: the cartesian product of
// every non-empty axis, each combination overriding the Base spec. An
// empty axis keeps the base value, so the zero Grid expands to exactly
// the base scenario.
type Grid struct {
	// Base is the spec every combination starts from.
	Base Spec `json:"base"`

	// Axes. Each non-empty slice multiplies the grid cardinality.
	Protocols []string  `json:"protocols,omitempty"`
	W         []float64 `json:"w,omitempty"`
	V         []float64 `json:"v,omitempty"`
	Stake     []float64 `json:"stake,omitempty"`
	Miners    []int     `json:"miners,omitempty"`
	Blocks    []int     `json:"blocks,omitempty"`
	Trials    []int     `json:"trials,omitempty"`
	Withhold  []int     `json:"withhold,omitempty"`
	// Strategies sweeps the adversary strategy itself; each cell
	// materialises an adversary block with the axis value (keeping the
	// base block's miner index when one exists). The "honest" value is
	// the no-deviation baseline cell — it normalises to the honest spec,
	// so it shares that spec's hash and cache entry.
	Strategies []string `json:"strategies,omitempty"`
	// Gamma sweeps a race strategy's network advantage; it requires an
	// adversary block on Base or a Strategies axis (the axis overrides
	// the block's gamma).
	Gamma []float64 `json:"gamma,omitempty"`
	// Delay sweeps selfish-delay's publish-delay cap; same requirement
	// as Gamma.
	Delay []int `json:"delay,omitempty"`
	// Every sweeps withhold's restake period; same requirement as Gamma.
	Every []int `json:"every,omitempty"`
	// ForkRate sweeps the network fork rate; a value of 0 is the honest
	// perfect-network cell (no network block).
	ForkRate []float64 `json:"fork_rate,omitempty"`

	// Seed is the sweep base seed from which each scenario's seed is
	// derived (DeriveSeed); 0 falls back to Base.Seed, then to 1.
	Seed uint64 `json:"seed,omitempty"`
}

// maxGridCells bounds a grid's expansion, about what a 4 MiB explicit
// scenario array can carry. A small grid document can name far more
// cells than memory holds, so Expand checks the count before it
// allocates anything.
const maxGridCells = 1 << 18

// axisLens returns the lengths of the grid's axes.
func (g Grid) axisLens() [13]int {
	return [...]int{
		len(g.Protocols), len(g.W), len(g.V), len(g.Stake),
		len(g.Miners), len(g.Blocks), len(g.Trials), len(g.Withhold),
		len(g.Strategies), len(g.Gamma), len(g.Delay), len(g.Every),
		len(g.ForkRate),
	}
}

// Size returns the number of concrete scenarios the grid expands to.
func (g Grid) Size() int {
	size := 1
	for _, n := range g.axisLens() {
		if n > 0 {
			size *= n
		}
	}
	return size
}

// baseSeed returns the sweep-level seed scenarios derive from.
func (g Grid) baseSeed() uint64 {
	if g.Seed != 0 {
		return g.Seed
	}
	if g.Base.Seed != 0 {
		return g.Base.Seed
	}
	return 1
}

// Expand returns the concrete, validated scenario list of the grid in a
// deterministic axis order (protocols ▸ w ▸ v ▸ stake ▸ miners ▸ blocks ▸
// trials ▸ withhold ▸ strategy ▸ gamma ▸ delay ▸ every ▸ fork-rate).
// Every scenario gets a descriptive Name and a seed derived from the
// grid seed and its own parameter content, so the list — seeds included
// — is a pure function of the grid.
func (g Grid) Expand() ([]Spec, error) {
	size := 1
	for _, n := range g.axisLens() {
		if n == 0 {
			continue
		}
		if size > maxGridCells/n { // size*n > maxGridCells, without overflow
			return nil, fmt.Errorf("%w: grid expands to more than %d scenarios", ErrSpec, maxGridCells)
		}
		size *= n
	}
	protocols := g.Protocols
	if len(protocols) == 0 {
		protocols = []string{g.Base.Protocol}
	}
	hasAdv := g.Base.Adversary != nil || len(g.Strategies) > 0
	for _, axis := range []struct {
		name string
		n    int
	}{{"gamma", len(g.Gamma)}, {"delay", len(g.Delay)}, {"every", len(g.Every)}} {
		if axis.n > 0 && !hasAdv {
			return nil, fmt.Errorf("%w: %s axis needs an adversary block on the base spec or a strategies axis", ErrSpec, axis.name)
		}
	}
	baseStrategy, baseGamma, baseDelay, baseEvery := "", 0.0, 0, 0
	if a := g.Base.Adversary; a != nil {
		baseStrategy, baseGamma, baseDelay, baseEvery = a.Strategy, a.Gamma, a.Delay, a.Every
	}
	specs := make([]Spec, 0, size)
	base := g.baseSeed()
	for _, proto := range protocols {
		for _, w := range orFloat(g.W, g.Base.W) {
			for _, v := range orFloat(g.V, g.Base.V) {
				for _, stake := range orFloat(g.Stake, g.Base.Stake) {
					for _, miners := range orInt(g.Miners, g.Base.Miners) {
						for _, blocks := range orInt(g.Blocks, g.Base.Blocks) {
							for _, trials := range orInt(g.Trials, g.Base.Trials) {
								for _, withhold := range orInt(g.Withhold, g.Base.WithholdEvery) {
									for _, strat := range orString(g.Strategies, baseStrategy) {
										for _, gamma := range orFloat(g.Gamma, baseGamma) {
											for _, delay := range orInt(g.Delay, baseDelay) {
												for _, every := range orInt(g.Every, baseEvery) {
													for _, fork := range orFloat(g.ForkRate, baseFork(g.Base)) {
														s := g.Base
														s.Protocol = proto
														s.W, s.V = w, v
														s.Blocks, s.Trials = blocks, trials
														s.WithholdEvery = withhold
														if len(g.Stake) > 0 || len(g.Miners) > 0 {
															// Stake axes override any explicit base allocation.
															s.Stakes = nil
															s.Stake, s.Miners = stake, miners
														}
														// Clone (or materialise, under a strategies axis) the
														// adversary block so grid cells never alias the base
														// or each other through shared structs. Normalisation
														// clears the parameters each cell's strategy does not
														// consume, so e.g. a withhold cell of a mixed grid is
														// untouched by the gamma axis.
														if strat != "" || len(g.Strategies) > 0 {
															adv := Adversary{Strategy: strat, Gamma: gamma, Delay: delay, Every: every}
															if g.Base.Adversary != nil {
																adv.Miner = g.Base.Adversary.Miner
															}
															s.Adversary = &adv
														}
														// A literal 0 is the honest perfect-network cell; any
														// other value — including an invalid one — materialises
														// a block so Validate vets it below, rather than an
														// out-of-range axis value silently collapsing into a
														// duplicate honest cell.
														if fork != 0 {
															s.Network = &Network{ForkRate: fork}
														} else {
															s.Network = nil
														}
														s.Seed = 0
														s.Seed = DeriveSeed(base, s)
														s.Name = g.cellName(s)
														if err := s.Validate(); err != nil {
															return nil, fmt.Errorf("expanding %s: %w", s.Name, err)
														}
														specs = append(specs, s)
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}

// baseFork returns the base spec's fork rate (0 without a network block).
func baseFork(base Spec) float64 {
	if base.Network != nil {
		return base.Network.ForkRate
	}
	return 0
}

// DecodeGrid parses a Grid from JSON, rejecting unknown fields.
func DecodeGrid(data []byte) (Grid, error) {
	var g Grid
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	return g, nil
}

// DecodeSpecsOrGrid parses the two sweep-input document formats every
// CLI and service accepts — an explicit scenario array, or a grid
// object — into a validated, non-empty scenario list. Arrays are taken
// verbatim, seeds and all; grids that don't name their own seed fall
// back to baseSeed (0 keeps the grid's usual Base.Seed/1 fallback).
// This is the single decode path of fairsweep -spec files, fairnessd
// /v1/sweep bodies and fairctl spec arguments.
func DecodeSpecsOrGrid(data []byte, baseSeed uint64) ([]Spec, error) {
	if strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		list, err := DecodeList(data)
		if err != nil {
			return nil, err
		}
		for i := range list {
			if err := list[i].Validate(); err != nil {
				return nil, fmt.Errorf("scenario %d: %w", i, err)
			}
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("%w: empty scenario list", ErrSpec)
		}
		return list, nil
	}
	grid, err := DecodeGrid(data)
	if err != nil {
		return nil, err
	}
	if grid.Seed == 0 {
		grid.Seed = baseSeed
	}
	specs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%w: grid expands to zero scenarios", ErrSpec)
	}
	return specs, nil
}

// cellName labels an expanded scenario. Protocol, reward and share are
// always shown; any other axis the grid actually sweeps (more than one
// value) is appended, so distinct grid cells never share a name.
func (g Grid) cellName(s Spec) string {
	n := s.Normalized()
	name := fmt.Sprintf("%s/w=%g/a=%g", n.Protocol, n.W, s.TrackedShare())
	if len(g.V) > 1 {
		name += fmt.Sprintf("/v=%g", s.V)
	}
	if len(g.Miners) > 1 {
		name += fmt.Sprintf("/m=%d", len(n.Stakes))
	}
	if len(g.Blocks) > 1 {
		name += fmt.Sprintf("/n=%d", n.Blocks)
	}
	if len(g.Trials) > 1 {
		name += fmt.Sprintf("/t=%d", n.Trials)
	}
	if s.WithholdEvery > 0 {
		name += fmt.Sprintf("/k=%d", s.WithholdEvery)
	}
	if n.Adversary != nil {
		name += fmt.Sprintf("/%s@%d", n.Adversary.Strategy, n.Adversary.Miner)
		if len(g.Gamma) > 1 {
			name += fmt.Sprintf("/g=%g", n.Adversary.Gamma)
		}
		if len(g.Delay) > 1 {
			name += fmt.Sprintf("/d=%d", n.Adversary.Delay)
		}
		if len(g.Every) > 1 {
			name += fmt.Sprintf("/e=%d", n.Adversary.Every)
		}
	} else if s.Adversary != nil {
		// The honest baseline cell of a strategies axis: its adversary
		// block collapses under normalisation, but the cell still earns a
		// label distinct from a plain honest spec.
		name += fmt.Sprintf("/honest@%d", s.Adversary.Miner)
	}
	if n.Network != nil {
		name += fmt.Sprintf("/f=%g", n.Network.ForkRate)
	}
	return name
}

func orFloat(axis []float64, base float64) []float64 {
	if len(axis) == 0 {
		return []float64{base}
	}
	return axis
}

func orInt(axis []int, base int) []int {
	if len(axis) == 0 {
		return []int{base}
	}
	return axis
}

func orString(axis []string, base string) []string {
	if len(axis) == 0 {
		return []string{base}
	}
	return axis
}
