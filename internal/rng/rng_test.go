package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the splitmix64 reference implementation
	// (Vigna), seed 1234567.
	s := NewSplitMix64(1234567)
	want := []uint64{
		6457827717110365317, // 0x599ed017fb08fc85
		3203168211198807973, // 0x2c73f08458540fa5
		9817491932198370423, // 0x883ebce5a3f27c77
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Errorf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64DistinctSeedsDiverge(t *testing.T) {
	a := NewSplitMix64(1)
	b := NewSplitMix64(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Bijectivity can't be tested exhaustively; check no collisions over
	// a large sample of structured inputs (sequential ints are the most
	// collision-prone input for weak mixers).
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 of 64 output bits on average.
	sm := NewSplitMix64(7)
	var totalFlips, trials int
	for i := 0; i < 200; i++ {
		x := sm.Uint64()
		hx := Mix64(x)
		for b := uint(0); b < 64; b++ {
			hy := Mix64(x ^ 1<<b)
			totalFlips += popcount(hx ^ hy)
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 28 || avg > 36 {
		t.Errorf("avalanche average %.2f bits, want ~32 (28..36)", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro256(99)
	b := NewXoshiro256(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at draw %d", i)
		}
	}
}

func TestXoshiroZeroSeedValid(t *testing.T) {
	x := NewXoshiro256(0)
	// The all-zero state would emit zero forever; the splitmix expansion
	// must avoid it.
	allZero := true
	for i := 0; i < 10; i++ {
		if x.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(5)
	for i := 0; i < 100000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	x := NewXoshiro256(6)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += x.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	x := NewXoshiro256(7)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := x.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d deviates from expectation %.0f", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewXoshiro256(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestUint64nBounds(t *testing.T) {
	x := NewXoshiro256(11)
	if err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return x.Uint64n(n) < n
	}, nil); err != nil {
		t.Error(err)
	}
}

// shuffled returns a Fisher–Yates shuffle of [0, n) drawn from x.
func shuffled(x *Xoshiro256, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func TestShuffleIsPermutation(t *testing.T) {
	x := NewXoshiro256(13)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := shuffled(x, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("shuffle of [0, %d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	x := NewXoshiro256(17)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[shuffled(x, n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("first element %d appeared %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	x := NewXoshiro256(19)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := x.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestShuffleSwapCoverage(t *testing.T) {
	// Shuffle must call swap exactly n-1 times with valid indices.
	x := NewXoshiro256(29)
	n := 100
	calls := 0
	x.Shuffle(n, func(i, j int) {
		if i < 0 || i >= n || j < 0 || j >= n {
			t.Fatalf("swap(%d, %d) out of range", i, j)
		}
		calls++
	})
	if calls != n-1 {
		t.Errorf("swap called %d times, want %d", calls, n-1)
	}
}
