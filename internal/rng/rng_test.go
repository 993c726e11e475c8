package rng

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from identical seeds diverged at draw %d", i)
		}
	}
}

// TestKnownAnswers pins the first outputs of SplitMix64 seeding plus
// xoshiro256++, so a one-bit change in seeding or in the update shows
// here rather than only in goldens several packages away. The values
// were checked against an independent transcription of both
// algorithms.
func TestKnownAnswers(t *testing.T) {
	for _, c := range []struct {
		name string
		r    *Rand
		want [3]uint64
	}{
		{"New(0)", New(0), [3]uint64{0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc}},
		{"New(42)", New(42), [3]uint64{0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c}},
		{"Stream(7, 3)", Stream(7, 3), [3]uint64{0x38187a621cd64035, 0x2bb31f79d6d711c, 0xc6e79abe6f12fd8b}},
	} {
		for i, want := range c.want {
			if got := c.r.Uint64(); got != want {
				t.Errorf("%s: output %d = %#x, want %#x", c.name, i, got, want)
			}
		}
	}
	for _, c := range []struct {
		seed uint64
		i    int
	}{{0, 0}, {7, 3}, {42, -1}, {1 << 63, 1000}} {
		got := New(99) // any prior state
		got.SeedStream(c.seed, c.i)
		if want := Stream(c.seed, c.i); *got != *want {
			t.Errorf("SeedStream(%d, %d) left %v, Stream gives %v", c.seed, c.i, *got, *want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestSeedZeroUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced repeated values: %d unique of 100", len(seen))
	}
}

func TestStreamIndependence(t *testing.T) {
	s0 := Stream(7, 0)
	s1 := Stream(7, 1)
	base := New(7)
	if s0.Uint64() == s1.Uint64() {
		t.Fatal("streams 0 and 1 produced the same first draw")
	}
	if Stream(7, 0).Uint64() == base.Uint64() {
		t.Fatal("Stream(seed, 0) should differ from New(seed)")
	}
	// Same (seed, index) must reproduce.
	x := Stream(9, 3)
	y := Stream(9, 3)
	for i := 0; i < 10; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatal("Stream is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(13)
	n := 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		f := r.Float64()
		sum += f
		sumSq += f * f
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d, want ~10000", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExponentialMean(t *testing.T) {
	r := New(23)
	n := 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exponential(2.0)
		if v < 0 {
			t.Fatalf("Exponential draw negative: %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Exponential(2) mean = %v, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	p := 0.05
	n := 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		k := r.Geometric(p)
		if k < 1 {
			t.Fatalf("Geometric draw below support: %d", k)
		}
		sum += float64(k)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/p) > 0.5 {
		t.Errorf("Geometric(%v) mean = %v, want ~%v", p, mean, 1/p)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(31)
	for i := 0; i < 10; i++ {
		if k := r.Geometric(1); k != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", k)
		}
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(53)
	weights := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical bucket %d freq %v, want ~%v", i, got, want)
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	r := New(59)
	weights := []float64{0, 1, 0}
	for i := 0; i < 1000; i++ {
		if got := r.Categorical(weights); got != 1 {
			t.Fatalf("Categorical chose zero-weight index %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"negative": {1, -1},
		"allzero":  {0, 0},
		"nan":      {math.NaN(), 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%s) did not panic", name)
				}
			}()
			New(1).Categorical(weights)
		}()
	}
}

// refCategorical is Categorical as it was first written: it returns the
// first index whose running sum exceeds u, with an early exit, or falls
// back to the last positive weight. Categorical and Tally count instead
// of exiting early; both are checked draw for draw against it.
func refCategorical(r *Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

func TestTallyMatchesCategorical(t *testing.T) {
	const tiny = 5e-324 // smallest subnormal
	fixed := [][]float64{
		{1},
		{0, 1},                 // every draw has index 1
		{1, 0},                 // and every draw index 0, fallbacks included
		{1, math.Inf(1)},       // infinite total: u is +Inf, or NaN when Float64 is 0
		{math.Inf(1), 1},       // a running sum equal to the infinite total
		{math.Inf(1), 0},       // and a fallback to index 0
		{0, 1, 2},              // zero weight first
		{3, 0, 0, 1},           // zero weights in the middle
		{1, 2, 0},              // zero weight last
		{0, tiny, 0},           // subnormal total: u can round up to it
		{tiny, tiny},           // and fall back to the last positive weight
		{tiny, 0},              // or to the first
		{tiny, 1e-310, 0, 0.5}, // subnormals below a normal weight
		{1, math.Inf(1), 2},    // infinite total: every draw falls back
		{1e300, 1e300, 0},      // large, with a zero after them
		{0.2, 0.8},
	}
	shapes := New(77)
	for k := 0; k < 200; k++ {
		m := 1 + shapes.Intn(12)
		if k%10 == 0 {
			m = 17 // more miners than a protocol step keeps on its stack
		}
		w := make([]float64, m)
		for i := range w {
			switch shapes.Intn(5) {
			case 0:
				w[i] = 0
			case 1:
				w[i] = tiny * float64(1+shapes.Intn(1000))
			default:
				w[i] = shapes.Float64()
			}
		}
		w[shapes.Intn(len(w))] += 0.1 // a positive total
		fixed = append(fixed, w)
	}
	// zeroFirst's first output is 0, so that Float64 is 0 and u = 0·total,
	// NaN for an infinite total: a draw no seed here reaches.
	zeroFirst := func() *Rand { return &Rand{s: xoshiro{0, 1, 2, 0}} }
	buf := make([]float64, 17)
	for k, w := range fixed {
		seed := uint64(k + 1)
		c := Cumulate(buf, w)
		wins := make([]int, len(w))
		// Categorical, and Tally one draw at a time, against the
		// early-exit scan, draw by draw.
		for _, gen := range []func() *Rand{func() *Rand { return New(seed) }, zeroFirst} {
			cat, tal, want := gen(), gen(), gen()
			for d := 0; d < 500; d++ {
				wt := refCategorical(want, w)
				if g := cat.Categorical(w); g != wt {
					t.Fatalf("weights %v, draw %d: Categorical = %d, early-exit scan %d", w, d, g, wt)
				}
				clear(wins)
				tal.Tally(&c, 1, wins)
				if wins[wt] != 1 {
					t.Fatalf("weights %v, draw %d: Tally counted %v, early-exit scan %d", w, d, wins, wt)
				}
			}
			if cat.s != want.s || tal.s != want.s {
				t.Fatalf("weights %v: generators diverged after single draws", w)
			}
		}
		// Whole epochs against counted early-exit draws, added to counts
		// already in wins.
		for _, n := range []int{0, 32, 65, 500} {
			got, want := New(seed), New(seed)
			wins, counts := make([]int, len(w)), make([]int, len(w))
			for i := range wins {
				wins[i], counts[i] = i, i
			}
			got.Tally(&c, n, wins)
			for d := 0; d < n; d++ {
				counts[refCategorical(want, w)]++
			}
			if !slices.Equal(wins, counts) {
				t.Fatalf("weights %v, %d draws: Tally counted %v, early-exit scan %v", w, n, wins, counts)
			}
			if got.s != want.s {
				t.Fatalf("weights %v: generators diverged after %d draws", w, n)
			}
		}
	}
}

// FuzzTally checks Tally against n early-exit draws for 1–17 weights read
// as float64 bits, 8 bytes each, with the sign cleared and NaN read as
// +Inf, so that zero, subnormal and infinite weights all occur.
func FuzzTally(f *testing.F) {
	le := func(ws ...float64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(le(0.2, 0.8), uint16(32), uint64(1))
	f.Add(le(0, 1), uint16(32), uint64(2))
	f.Add(le(1, 0), uint16(65), uint64(3))
	f.Add(le(1, math.Inf(1)), uint16(500), uint64(4))
	f.Add(le(5e-324, 5e-324), uint16(500), uint64(5))
	f.Add(le(1, 2, 0, 3, 5e-324, 1e300), uint16(100), uint64(6))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, seed uint64) {
		m := min(len(data)/8, 17)
		if m == 0 {
			t.Skip()
		}
		w := make([]float64, m)
		total := 0.0
		for i := range w {
			w[i] = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
			if math.IsNaN(w[i]) {
				w[i] = math.Inf(1)
			}
			total += w[i]
		}
		if total == 0 {
			t.Skip() // Cumulate panics, as Categorical does
		}
		c := Cumulate(make([]float64, m), w)
		got, want := New(seed), New(seed)
		wins, counts := make([]int, m), make([]int, m)
		got.Tally(&c, int(n), wins)
		for d := 0; d < int(n); d++ {
			counts[refCategorical(want, w)]++
		}
		if !slices.Equal(wins, counts) {
			t.Fatalf("weights %v, %d draws: Tally counted %v, early-exit scan %v", w, n, wins, counts)
		}
		if got.s != want.s {
			t.Fatalf("weights %v, %d draws: generator state %v, want %v", w, n, got.s, want.s)
		}
	})
}

func TestCumulatePanicsLikeCategorical(t *testing.T) {
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for name, w := range map[string][]float64{
		"negative":   {1, 2, -1},
		"nan":        {1, math.NaN(), 1},
		"zero-total": {0, 0},
		"empty":      {},
	} {
		want := panicOf(func() { New(1).Categorical(w) })
		got := panicOf(func() { Cumulate(make([]float64, len(w)), w) })
		if want == nil || got != want {
			t.Errorf("%s: Cumulate panicked with %v, Categorical with %v", name, got, want)
		}
	}
}

// Property: Float64 is always in [0,1) regardless of seed.
func TestQuickFloat64InRange(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		r := New(seed)
		for i := 0; i < int(draws); i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two generators with the same seed agree on arbitrary prefixes.
func TestQuickDeterministicPrefix(t *testing.T) {
	f := func(seed uint64, draws uint8) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < int(draws); i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Intn stays in bounds for arbitrary n and seeds.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 5: "5", 42: "42", -7: "-7", 1234567: "1234567"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Errorf("itoa(%d) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkCategorical10(b *testing.B) {
	r := New(1)
	w := make([]float64, 10)
	for i := range w {
		w[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Categorical(w)
	}
}

// BenchmarkTally times one C-PoS epoch's lottery: P = 32 draws counted
// per miner, at 2 and 10 miners.
func BenchmarkTally(b *testing.B) {
	for _, m := range []int{2, 10} {
		b.Run("m="+itoa(m), func(b *testing.B) {
			w := make([]float64, m)
			for i := range w {
				w[i] = float64(i + 1)
			}
			c := Cumulate(make([]float64, m), w)
			wins := make([]int, m)
			r := New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Tally(&c, 32, wins)
			}
		})
	}
}
