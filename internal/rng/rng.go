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

import "math"

// Rand is a deterministic pseudo-random number generator.
//
// It is NOT safe for concurrent use; give each goroutine its own Rand
// (see Split and Stream).
type Rand struct {
	s [4]uint64
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
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		r.s[i] = z
	}
	// A state of all zeros is the one forbidden state of xoshiro; the
	// SplitMix64 outputs cannot all be zero for any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split derives an independent generator from the current one. The child
// stream is decorrelated from the parent by reseeding through SplitMix64.
// The parent advances by one draw.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
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
	// Use the top 53 bits for a uniformly spaced mantissa.
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

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
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
// and O(1).
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
	return int64(k)
}

// Binomial returns a draw from Binomial(n, p). For the small n used by
// C-PoS shard counts (P = 32 in Ethereum 2.0) direct summation is fast;
// for large n it falls back to inversion over the CDF recurrence.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	return r.binomialInversion(n, p)
}

// binomialInversion draws Binomial(n,p) by walking the PMF recurrence
// pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p) until the target CDF mass is
// covered. Expected work is O(np), acceptable for the moderate np this
// repository uses.
func (r *Rand) binomialInversion(n int, p float64) int {
	q := 1 - p
	u := r.Float64()
	pmf := math.Pow(q, float64(n))
	cdf := pmf
	ratio := p / q
	k := 0
	for u > cdf && k < n {
		pmf *= ratio * float64(n-k) / float64(k+1)
		k++
		cdf += pmf
	}
	return k
}

// Normal returns a standard normal draw using the Marsaglia polar method.
func (r *Rand) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Categorical returns an index drawn with probability weights[i]/sum(weights).
// Weights must be non-negative with a positive sum; it panics otherwise.
// A linear scan is used: the simulations draw from small weight vectors
// (2–10 miners), where scanning beats alias-table setup. For several
// draws from one weight vector, Cumulate it once and call Draw: each draw
// returns what Categorical would, without re-validating and re-summing.
func (r *Rand) Categorical(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		checkWeight(i, w)
		total += w
	}
	checkTotal(total)
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	// Floating-point slack: fall back to the last positive weight.
	return lastPositive(weights)
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
// categorical draws.
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

// Draw returns the index r.Categorical(weights) would return for the
// weights c was cumulated from, consuming the same single Uint64.
//
// Categorical returns the first i whose running sum exceeds u. Running
// sums never decrease, so when u < total that index is the number of
// running sums before the last that are ≤ u, which Draw counts without a
// data-dependent branch. Otherwise (u ≥ total, or NaN from an infinite
// total) both fall back to the last positive weight.
func (r *Rand) Draw(c *Cumulative) int {
	u := r.Float64() * c.total
	if !(u < c.total) {
		return c.last
	}
	i := 0
	for _, s := range c.head {
		if s <= u {
			i++
		}
	}
	return i
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the slice indices via the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
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
