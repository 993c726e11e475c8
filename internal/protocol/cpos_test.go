package protocol

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/game"
	"repro/internal/rng"
)

// refCPoSStep is the straightforward C-PoS epoch: copy the epoch-start
// stakes, make one Categorical draw and one Credit per shard, then pay
// inflation in miner order. CPoS.Step must reproduce it bit for bit.
func refCPoSStep(p CPoS, st *game.State, r *rng.Rand) {
	m := st.NumMiners()
	start := make([]float64, m)
	copy(start, st.Stakes)
	total := 0.0
	for _, s := range start {
		total += s
	}
	perShard := p.W / float64(p.P)
	for shard := 0; shard < p.P; shard++ {
		winner := r.Categorical(start)
		st.Credit(winner, perShard, perShard)
	}
	if p.V > 0 && total > 0 {
		for i, s := range start {
			if s > 0 {
				amt := p.V * s / total
				st.Credit(i, amt, amt)
			}
		}
	}
	st.EndBlock()
}

// sameBits reports the first field where two states differ in any bit.
func sameBits(got, want *game.State) error {
	if got.Blocks != want.Blocks {
		return fmt.Errorf("blocks %d, want %d", got.Blocks, want.Blocks)
	}
	for i := range want.Stakes {
		pairs := [3][2]float64{
			{got.Stakes[i], want.Stakes[i]},
			{got.Rewards[i], want.Rewards[i]},
			{got.PendingStake(i), want.PendingStake(i)},
		}
		for f, name := range []string{"stake", "reward", "pending"} {
			if math.Float64bits(pairs[f][0]) != math.Float64bits(pairs[f][1]) {
				return fmt.Errorf("%s[%d] = %v, want %v", name, i, pairs[f][0], pairs[f][1])
			}
		}
	}
	return nil
}

// withholdings are the withholding set-ups the bit-for-bit tests play
// every game under: none, all miners', and one miner's, forever or
// periodically.
var withholdings = []struct {
	name string
	opts []game.Option
}{
	{"none", nil},
	{"all-every-5", []game.Option{game.WithWithholding(5)}},
	{"miner0-forever", []game.Option{game.WithMinerWithholding(0, 0)}},
	{"miner1-every-3", []game.Option{game.WithMinerWithholding(1, 3)}},
}

// randomShares returns m initial shares drawn from seed, each at least
// 0.05.
func randomShares(m int, seed uint64) []float64 {
	initial := make([]float64, m)
	shares := rng.New(seed)
	for i := range initial {
		initial[i] = 0.05 + shares.Float64()
	}
	return initial
}

func TestCPoSStepMatchesReferenceBitForBit(t *testing.T) {
	// m = 17 is past the kernel's stack scratch, so it runs the heap
	// fallback.
	for _, m := range []int{2, 3, 5, 10, 17} {
		for _, shards := range []int{1, 31, 32, 65} {
			for _, v := range []float64{0, 0.1} {
				for k, wh := range withholdings {
					name := fmt.Sprintf("m%d/P%d/V%v/%s", m, shards, v, wh.name)
					seed := uint64(1000*m + 10*shards + k)
					initial := randomShares(m, seed)
					p := NewCPoS(0.02, v, shards)
					got, want := game.MustNew(initial, wh.opts...), game.MustNew(initial, wh.opts...)
					rGot, rWant := rng.New(seed), rng.New(seed)
					for epoch := 0; epoch < 500; epoch++ {
						p.Step(got, rGot)
						refCPoSStep(p, want, rWant)
						if err := sameBits(got, want); err != nil {
							t.Fatalf("%s: epoch %d: %v", name, epoch, err)
						}
					}
					if g, w := rGot.Uint64(), rWant.Uint64(); g != w {
						t.Fatalf("%s: generator diverged: next Uint64 %#x, want %#x", name, g, w)
					}
				}
			}
		}
	}
}
