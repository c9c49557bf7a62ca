package randx

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield the same stream")
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 100; i++ {
		if a.Float64() == c.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d identical draws of 100", same)
	}
}

// TestFloat64IsRandFloat64 pins that Float64, which reads the PCG source
// directly, draws the bits math/rand/v2's Float64 draws from the same
// source, and that it shares one stream with the methods Rand inherits.
func TestFloat64IsRandFloat64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2007, 1 << 63} {
		r := New(seed)
		ref := rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
		for i := 0; i < 2000; i++ {
			var got, want float64
			switch i % 4 {
			case 0:
				got, want = r.Float64(), ref.Float64()
			case 1:
				got, want = r.Uniform(-0.5, 2), -0.5+2.5*ref.Float64()
			case 2:
				got, want = float64(r.Pick(37)), float64(ref.IntN(37))
			case 3:
				got, want = r.ExpFloat64(), ref.ExpFloat64()
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: %v, math/rand/v2 %v", seed, i, got, want)
			}
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(5)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Float64() == s2.Float64() {
		t.Error("split streams should diverge")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(9)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(-0.6, 0.6)
		if v < -0.6 || v >= 0.6 {
			t.Fatalf("uniform draw %v outside [-0.6, 0.6)", v)
		}
	}
	// Swapped bounds are tolerated.
	v := r.Uniform(1, 0)
	if v < 0 || v >= 1 {
		t.Errorf("swapped-bounds draw %v outside [0,1)", v)
	}
}

func TestUniformMean(t *testing.T) {
	r := New(10)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Uniform(0.34, 1)
	}
	mean := sum / n
	if math.Abs(mean-0.67) > 0.01 {
		t.Errorf("uniform mean = %v, want ≈0.67", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const rate = 2.5
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("exponential mean = %v, want %v", mean, 1/rate)
	}
}

func TestExpNonPositiveRate(t *testing.T) {
	r := New(12)
	if got := r.Exp(0); got < 1e17 {
		t.Errorf("rate-0 inter-arrival = %v, want effectively never", got)
	}
	if got := r.Exp(-1); got < 1e17 {
		t.Errorf("negative-rate inter-arrival = %v, want effectively never", got)
	}
}

func TestPickAndPerm(t *testing.T) {
	r := New(13)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := r.Pick(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Pick out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Pick over 200 draws hit %d of 5 values", len(seen))
	}
	p := r.Perm(10)
	if len(p) != 10 {
		t.Fatalf("Perm length = %d", len(p))
	}
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 45 {
		t.Errorf("Perm is not a permutation: sum %d", sum)
	}
}

func TestBool(t *testing.T) {
	r := New(14)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}
