// Package rng provides a deterministic, seedable pseudo-random number
// generator and the samplers the mining-game simulations need.
//
// Reproducibility is a hard requirement for this repository: every
// experiment in the paper is re-run as a Monte-Carlo simulation, and the
// test suite asserts statistical shapes against fixed seeds. The generator
// is xoshiro256++ (Blackman & Vigna), seeded through SplitMix64 so that
// nearby integer seeds yield decorrelated states. Both algorithms are
// public domain and implemented here from the reference descriptions.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator: a Gen behind a
// pointer.
//
// It is NOT safe for concurrent use; give each goroutine its own Rand
// (see Stream).
type Rand struct {
	s Gen
}

// Gen is the generator's xoshiro256++ state as a value. Each draw takes
// the state and returns the advanced state with its result, so a loop
// over a Gen held in a local keeps all four words in registers, where
// draws on a *Rand read and write them through memory. A Gen taken from
// a Rand with Rand.Gen and put back with SetGen continues the Rand's
// stream exactly: the draws in between are the ones the Rand would have
// made.
//
// It is four named words rather than a [4]uint64 because Go keeps a
// local struct of up to four scalars in registers, and an array on the
// stack.
type Gen struct{ s0, s1, s2, s3 uint64 }

// Gen returns r's state.
func (r *Rand) Gen() Gen { return r.s }

// SetGen sets r's state to g, typically a state returned by Gen and
// advanced by draws on it.
func (r *Rand) SetGen(g Gen) { r.s = g }

// next returns the state after one xoshiro256++ step and the step's
// output. It is the only copy of the update; every draw of Rand and Gen
// makes it.
func (g Gen) next() (Gen, uint64) {
	out := bits.RotateLeft64(g.s0+g.s3, 23) + g.s0
	t := g.s1 << 17
	g.s2 ^= g.s0
	g.s3 ^= g.s1
	g.s1 ^= g.s2
	g.s0 ^= g.s3
	g.s2 ^= t
	g.s3 = bits.RotateLeft64(g.s3, 45)
	return g, out
}

// Float64 returns the advanced state and a uniform float64 in [0, 1),
// the draw Rand.Float64 makes.
func (g Gen) Float64() (Gen, float64) {
	g, out := g.next()
	// Use the top 53 bits for a uniformly spaced mantissa.
	return g, float64(out>>11) / (1 << 53)
}

// Ones makes n categorical draws from two weights, the first h and both
// together total, and returns the advanced state and the number of
// draws whose u = Float64()·total has !(u < h). Those are exactly the
// draws for which Categorical([h, total−h]) returns index 1 when the
// second weight is positive, fallbacks at or past the total (NaN
// included) among them. When the second weight is zero, Categorical
// returns index 0 for every draw. The count is kept in a register with
// no data-dependent branch; Tally and the protocols' two-miner loops
// make their two-weight draws through it.
func (g Gen) Ones(n int, h, total float64) (Gen, int) {
	if n <= 0 {
		return g, 0
	}
	// Float64's conversion is written out and the draws below h are
	// counted: drawn through Float64 and counting !(u < h), this loop
	// ran 6–9% slower (BenchmarkTally, 2-vCPU Xeon, go1.24).
	below := 0
	for k := n; k > 0; k-- {
		var out uint64
		g, out = g.next()
		u := float64(out>>11) / (1 << 53) * total // Float64() * total
		b := 0
		if u < h { // false for NaN u, which Ones counts as the fallback
			b = 1
		}
		below += b
	}
	return g, n - below
}

// New returns a generator seeded from the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single 64-bit seed using the
// SplitMix64 sequence, which guarantees a full, well-mixed state even for
// small or sequential seeds.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	var w [4]uint64
	for i := range w {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		w[i] = z
	}
	r.s = Gen{w[0], w[1], w[2], w[3]}
	// A state of all zeros is the one forbidden state of xoshiro; the
	// SplitMix64 outputs cannot all be zero for any seed, but guard anyway.
	if r.s == (Gen{}) {
		r.s.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	var out uint64
	r.s, out = r.s.next()
	return out
}

// Stream returns the generator for sub-stream i of the given base seed.
// Streams with different (seed, i) pairs are decorrelated; identical pairs
// are identical. This is how per-trial generators are made in Monte-Carlo
// runs: Stream(seed, trialIndex).
func Stream(seed uint64, i int) *Rand {
	r := &Rand{}
	r.SeedStream(seed, i)
	return r
}

// SeedStream resets the generator in place to sub-stream i of the given
// base seed — Stream without the allocation, for callers that recycle
// one Rand per slot across batches. SeedStream(s, i) leaves the
// generator bit-identical to Stream(s, i).
func (r *Rand) SeedStream(seed uint64, i int) {
	// Mix the stream index through a distinct odd constant so that
	// Stream(s, 0) differs from New(s).
	r.Seed(seed ^ (uint64(i)+1)*0xd1342543de82ef95)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// Gen.Float64's conversion, written out: through a call to it,
	// Float64 would no longer inline.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in (0, 1), never exactly 0 or 1.
// Samplers that take logarithms use this to avoid infinities.
func (r *Rand) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Exponential returns a draw from the exponential distribution with the
// given rate parameter (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Geometric returns the number of Bernoulli(p) trials up to and including
// the first success (support {1, 2, ...}). For the tiny per-timestamp
// success probabilities of ML-PoS kernels, drawing by inversion is exact
// and O(1). A count of 2^63 or more, which p below about 1e-19 draws
// often, saturates at math.MaxInt64: converting it to int64 would be
// implementation-defined (math.MinInt64 on amd64).
func (r *Rand) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0, 1]")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64Open()
	k := math.Ceil(math.Log(u) / math.Log1p(-p))
	if k < 1 {
		k = 1
	}
	if k >= 1<<63 {
		return math.MaxInt64
	}
	return int64(k)
}

// Categorical returns an index drawn with probability weights[i]/sum(weights).
// Weights must be non-negative with a positive sum; it panics otherwise.
// A linear scan is used: the simulations draw from small weight vectors
// (2–10 miners), where scanning beats alias-table setup. For several
// draws from one weight vector, Cumulate it once and count the draws with
// Tally: each draw picks what Categorical would, without re-validating
// and re-summing.
//
// With u = Float64()·total, the draw is the first i whose running sum
// weights[0] + … + weights[i] exceeds u. Running sums never decrease, so
// when u < total that index is the number of running sums before the
// last that are ≤ u, which the scan counts without an early exit, whose
// branch depends on u and so mispredicts often. Otherwise (u ≥ total
// through floating-point slack, or NaN from an infinite total) no running
// sum exceeds u and the draw falls back to the last positive weight.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		checkWeight(i, w)
		total += w
	}
	checkTotal(total)
	u := r.Float64() * total
	if !(u < total) {
		return lastPositive(weights)
	}
	i, acc := 0, 0.0
	for _, w := range weights[:len(weights)-1] {
		acc += w
		// Not "if acc <= u { i++ }": that compiles to a jump.
		b := 0
		if acc <= u {
			b = 1
		}
		i += b
	}
	return i
}

func checkWeight(i int, w float64) {
	if w < 0 || math.IsNaN(w) {
		badWeight(i)
	}
}

// badWeight stays out of line so that checkWeight inlines into the
// validation loops.
//
//go:noinline
func badWeight(i int) {
	panic("rng: Categorical with negative or NaN weight at index " + itoa(i))
}

func checkTotal(total float64) {
	if total <= 0 {
		panic("rng: Categorical with non-positive total weight")
	}
}

func lastPositive(weights []float64) int {
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Cumulative is a weight vector prepared by Cumulate for repeated
// categorical draws with Tally.
type Cumulative struct {
	// head holds all running sums but the last: head[i] = weights[0] +
	// … + weights[i], added left to right like Categorical's acc.
	head []float64
	// total is the last running sum, Categorical's total.
	total float64
	// last is Categorical's fallback draw, the last positive weight.
	last int
}

// Cumulate validates weights exactly as Categorical does, panicking with
// the same messages, and writes their running sums into buf, which must
// hold len(weights) values. The result reads buf, so buf must not be
// reused while the result is; weights may change without affecting it.
func Cumulate(buf, weights []float64) Cumulative {
	sums := buf[:len(weights)]
	acc := 0.0
	for i, w := range weights {
		checkWeight(i, w)
		acc += w
		sums[i] = acc
	}
	checkTotal(acc)
	return Cumulative{head: sums[:len(sums)-1], total: acc, last: lastPositive(weights)}
}

// Tally makes n categorical draws from the weights c was cumulated from
// and adds one to wins[i] for each draw of index i. It consumes the same
// n Uint64s and picks the same indices as n calls of
// r.Categorical(weights); wins must have len(weights) entries.
//
// Each draw's index is Categorical's count of the running sums before the
// last that are ≤ u, or the last positive weight when !(u < total), and
// Tally takes it without a data-dependent branch. For two weights it
// counts the index-1 draws with Gen.Ones and adds to wins once; when the
// second weight is zero, the first is the total and every draw Ones
// counts is a fallback to index 0.
func (r *Rand) Tally(c *Cumulative, n int, wins []int) {
	r.s = tally(r.s, c, n, wins)
}

// tally is Tally on a state passed and returned by value. As a method
// the loop re-reads the generator through r on every comparison; as a
// function the compiler keeps the state, u and the count in registers
// from the first draw to the last.
func tally(x Gen, c *Cumulative, n int, wins []int) Gen {
	head, total, last := c.head, c.total, c.last
	if len(head) == 1 && n > 0 {
		x, ones := x.Ones(n, head[0], total)
		if last == 0 {
			ones = 0
		}
		wins[0] += n - ones
		wins[1] += ones
		return x
	}
	for ; n > 0; n-- {
		var out uint64
		x, out = x.next()
		u := float64(out>>11) / (1 << 53) * total // Float64() * total
		i := last
		if u < total {
			i = 0
			for _, h := range head {
				// Not "if h <= u { i++ }": that compiles to a jump.
				b := 0
				if h <= u {
					b = 1
				}
				i += b
			}
		}
		wins[i]++
	}
	return x
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
