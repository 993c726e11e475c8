package protocol

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// runProtocols are the protocols Run is checked on: the four with a
// loop of their own, C-PoS over shard counts and with and without
// inflation, and FSL-PoS, which has none and so is stepped.
func runProtocols() []Protocol {
	ps := []Protocol{NewPoW(0.01), NewMLPoS(0.01), NewSLPoS(0.01), NewFSLPoS(0.01)}
	for _, shards := range []int{1, 32, 65} {
		for _, v := range []float64{0, 0.1} {
			ps = append(ps, NewCPoS(0.02, v, shards))
		}
	}
	return ps
}

// panicOf calls f and returns the value it panicked with, or nil.
func panicOf(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// checkRun runs Run(p, got, rGot, n) and n Steps on the twin state and
// generator (want, rWant), and reports the first difference: in what
// they panicked with, in any bit of the states, or in the generators'
// next Uint64.
func checkRun(p Protocol, got, want *game.State, rGot, rWant *rng.Rand, n int) error {
	gotPanic := panicOf(func() { Run(p, got, rGot, n) })
	wantPanic := panicOf(func() {
		for i := 0; i < n; i++ {
			p.Step(want, rWant)
		}
	})
	if gotPanic != wantPanic {
		return fmt.Errorf("Run panicked with %v, Steps with %v", gotPanic, wantPanic)
	}
	if err := sameBits(got, want); err != nil {
		return err
	}
	if g, w := rGot.Uint64(), rWant.Uint64(); g != w {
		return fmt.Errorf("generator diverged: next Uint64 %#x, want %#x", g, w)
	}
	return nil
}

func TestRunMatchesStepsBitForBit(t *testing.T) {
	for _, p := range runProtocols() {
		for _, m := range []int{2, 3, 10} {
			for k, wh := range withholdings {
				name := fmt.Sprintf("%s%+v/m%d/%s", p.Name(), p, m, wh.name)
				seed := uint64(100*m + k)
				initial := randomShares(m, seed)
				got, want := game.MustNew(initial, wh.opts...), game.MustNew(initial, wh.opts...)
				rGot, rWant := rng.New(seed), rng.New(seed)
				// Each Run continues the game the last one left, so later
				// runs start from grown stakes and rewards.
				for _, n := range []int{0, 1, 2, 31, 400, 4097} {
					if err := checkRun(p, got, want, rGot, rWant, n); err != nil {
						t.Fatalf("%s: Run(%d) from block %d: %v", name, n, want.Blocks-n, err)
					}
				}
			}
		}
	}

	// Two-miner stakes written straight into the state: zero, infinite,
	// subnormal, tiny, NaN, negative and negative-zero stakes, which the
	// loops must play as Step does, panicking where it panics.
	const tiny = 5e-324
	inf := math.Inf(1)
	for _, stakes := range [][2]float64{
		{0, 1}, {1, 0}, {1, inf}, {inf, 1}, {tiny, 0}, {1e-300, 1},
		{math.NaN(), 1}, {1, math.NaN()}, {1, -1}, {0, 0}, {math.Copysign(0, -1), 1},
	} {
		for _, p := range runProtocols() {
			for _, n := range []int{1, 2, 31, 400} {
				got, want := game.MustNew(game.EqualShares(2)), game.MustNew(game.EqualShares(2))
				copy(got.Stakes, stakes[:])
				copy(want.Stakes, stakes[:])
				seed := uint64(n)
				if err := checkRun(p, got, want, rng.New(seed), rng.New(seed), n); err != nil {
					t.Errorf("%s%+v: stakes %v: Run(%d): %v", p.Name(), p, stakes, n, err)
				}
			}
		}
	}
}

// FuzzRun checks Run against n Steps on two-miner games whose stakes and
// rewards are any float64 bits: the same bits afterwards, or the same
// panic.
func FuzzRun(f *testing.F) {
	b := math.Float64bits
	f.Add(uint8(0), b(0.2), b(0.8), b(0), b(0), uint16(400))
	f.Add(uint8(1), b(0.3), b(0.7), b(1.5), b(2.5), uint16(4097))
	f.Add(uint8(2), b(0.4), b(0.6), b(0), b(0), uint16(1000))
	f.Add(uint8(6), b(1), b(math.Inf(1)), b(0), b(0), uint16(31))
	f.Add(uint8(8), b(5e-324), b(0), b(0), b(0), uint16(65))
	f.Add(uint8(1), b(math.NaN()), b(1), b(0), b(0), uint16(2))
	f.Fuzz(func(t *testing.T, proto uint8, s0, s1, w0, w1 uint64, n uint16) {
		ps := runProtocols()
		p := ps[int(proto)%len(ps)]
		blocks := int(n % 5001)
		got, want := game.MustNew(game.EqualShares(2)), game.MustNew(game.EqualShares(2))
		for _, st := range []*game.State{got, want} {
			st.Stakes[0], st.Stakes[1] = math.Float64frombits(s0), math.Float64frombits(s1)
			st.Rewards[0], st.Rewards[1] = math.Float64frombits(w0), math.Float64frombits(w1)
		}
		seed := s0 ^ s1 ^ w0 ^ w1
		if err := checkRun(p, got, want, rng.New(seed), rng.New(seed), blocks); err != nil {
			t.Fatalf("%s%+v: stakes {%v, %v}, rewards {%v, %v}: Run(%d): %v", p.Name(), p,
				math.Float64frombits(s0), math.Float64frombits(s1),
				math.Float64frombits(w0), math.Float64frombits(w1), blocks, err)
		}
	})
}
