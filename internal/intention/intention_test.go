package intention

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestConsumerPositiveBranch(t *testing.T) {
	// υ=1: intention is exactly the preference (the experimental setting).
	if got := Consumer(0.7, 0.2, 1, 1); !almostEqual(got, 0.7) {
		t.Errorf("υ=1 intention = %v, want preference 0.7", got)
	}
	// υ=0: intention is exactly the reputation.
	if got := Consumer(0.7, 0.2, 0, 1); !almostEqual(got, 0.2) {
		t.Errorf("υ=0 intention = %v, want reputation 0.2", got)
	}
	// υ=0.5: geometric mean.
	if got := Consumer(0.9, 0.4, 0.5, 1); !almostEqual(got, math.Sqrt(0.9*0.4)) {
		t.Errorf("υ=0.5 intention = %v, want √(0.36)", got)
	}
}

func TestConsumerNegativeBranch(t *testing.T) {
	// Preference ≤ 0 forces the negative branch even with good reputation.
	got := Consumer(-0.5, 0.8, 0.5, 1)
	want := -math.Sqrt((1 + 0.5 + 1) * (1 - 0.8 + 1))
	if !almostEqual(got, want) {
		t.Errorf("negative-branch intention = %v, want %v", got, want)
	}
	if got >= 0 {
		t.Error("disliked provider must yield negative intention")
	}
	// Reputation ≤ 0 also forces the negative branch.
	if Consumer(0.5, -0.1, 0.5, 1) >= 0 {
		t.Error("bad reputation must yield negative intention")
	}
	// Zero preference is "indifference", not desire: negative branch.
	if Consumer(0, 1, 0.5, 1) >= 0 {
		t.Error("zero preference must not yield positive intention")
	}
}

func TestConsumerEpsilonPreventsZero(t *testing.T) {
	// With pref = 1 in the negative branch (rep ≤ 0), ε keeps the
	// magnitude away from 0.
	got := Consumer(1, -1, 0.5, 1)
	if got == 0 {
		t.Error("ε must prevent a zero intention")
	}
	want := -math.Sqrt((1 - 1 + 1) * (1 + 1 + 1))
	if !almostEqual(got, want) {
		t.Errorf("intention = %v, want %v", got, want)
	}
}

func TestConsumerMonotonicInPreference(t *testing.T) {
	prev := math.Inf(-1)
	for p := -1.0; p <= 1.0; p += 0.05 {
		got := Consumer(p, 0.5, 0.7, 1)
		if got < prev-1e-12 {
			t.Fatalf("intention not monotone in preference at %v: %v < %v", p, got, prev)
		}
		prev = got
	}
}

func TestProviderPositiveBranch(t *testing.T) {
	// Dissatisfied provider (δs=0) focuses on preferences.
	if got := Provider(0.8, 0.5, 0, 1); !almostEqual(got, 0.8) {
		t.Errorf("δs=0 intention = %v, want preference 0.8", got)
	}
	// Fully satisfied provider (δs=1) focuses on utilization.
	if got := Provider(0.8, 0.3, 1, 1); !almostEqual(got, 0.7) {
		t.Errorf("δs=1 intention = %v, want 1-Ut = 0.7", got)
	}
	// δs=0.5: geometric balance (the Figure 2 setting).
	if got := Provider(0.64, 0.36, 0.5, 1); !almostEqual(got, math.Sqrt(0.64*0.64)) {
		t.Errorf("δs=0.5 intention = %v, want √(0.64·0.64)", got)
	}
}

func TestProviderNegativeBranch(t *testing.T) {
	// Overutilized providers never show positive intention, regardless of
	// preference — this is what protects response times (Section 5.2).
	if got := Provider(1, 1, 0.5, 1); got >= 0 {
		t.Errorf("overutilized provider intention = %v, want negative", got)
	}
	if got := Provider(1, 2.5, 0.5, 1); got >= 0 {
		t.Errorf("heavily overutilized intention = %v, want negative", got)
	}
	// Unwanted queries yield negative intention even when idle.
	if got := Provider(-0.3, 0, 0.5, 1); got >= 0 {
		t.Errorf("unwanted-query intention = %v, want negative", got)
	}
	// Exact formula check: pref=-0.5, Ut=1.5, δs=0.5, ε=1:
	// -( (1+0.5+1)^0.5 · (1.5+1)^0.5 )
	got := Provider(-0.5, 1.5, 0.5, 1)
	want := -math.Sqrt(2.5 * 2.5)
	if !almostEqual(got, want) {
		t.Errorf("intention = %v, want %v", got, want)
	}
}

func TestProviderMoreLoadedLessWilling(t *testing.T) {
	prev := math.Inf(1)
	for u := 0.0; u <= 2.0; u += 0.1 {
		got := Provider(0.9, u, 0.5, 1)
		if got > prev+1e-12 {
			t.Fatalf("intention not non-increasing in utilization at %v: %v > %v", u, got, prev)
		}
		prev = got
	}
}

func TestProviderDissatisfiedChasesPreferences(t *testing.T) {
	// At equal high load, a dissatisfied provider shows a stronger
	// intention for a loved query than a satisfied one does.
	dissat := Provider(0.9, 0.9, 0.1, 1)
	sat := Provider(0.9, 0.9, 0.9, 1)
	if dissat <= sat {
		t.Errorf("dissatisfied %v should exceed satisfied %v for a loved query under load", dissat, sat)
	}
}

func TestFigure2SurfaceShape(t *testing.T) {
	// Figure 2 (δs = 0.5): positive intentions only in the quadrant
	// pref > 0 ∧ Ut < 1; the surface dips to about -2.5 at the worst corner.
	worst := Provider(-1, 2, 0.5, 1)
	if worst > -2.4 || worst < -3.1 {
		t.Errorf("worst-corner value = %v, want ≈ -√(3·3) = -3 … -2.4 region", worst)
	}
	best := Provider(1, 0, 0.5, 1)
	if !almostEqual(best, 1) {
		t.Errorf("best-corner value = %v, want 1", best)
	}
	for p := -1.0; p <= 1.0; p += 0.25 {
		for u := 0.0; u <= 2.0; u += 0.25 {
			v := Provider(p, u, 0.5, 1)
			if v > 0 && !(p > 0 && u < 1) {
				t.Fatalf("positive intention outside the allowed quadrant: pref=%v ut=%v v=%v", p, u, v)
			}
		}
	}
}

func TestInputClamping(t *testing.T) {
	// Garbage inputs must not produce NaN.
	cases := []float64{
		Consumer(math.NaN(), 0.5, 0.5, 1),
		Consumer(5, -7, 2, -1),
		Provider(math.NaN(), math.NaN(), math.NaN(), 0),
		Provider(3, -2, 9, math.NaN()),
	}
	for i, v := range cases {
		if math.IsNaN(v) {
			t.Errorf("case %d produced NaN", i)
		}
	}
}

// TestProviderNaNUtilizationReadsAsIdle: a NaN utilization is out of domain
// on the low side, like a negative one. It used to slip past the `util < 0`
// guard and come back as a NaN intention whenever δs > 0.
func TestProviderNaNUtilizationReadsAsIdle(t *testing.T) {
	for _, c := range []struct{ pref, sat, eps float64 }{
		{0.6, 0.4, 1}, {-0.3, 0.4, 1}, {0.6, 1, 1}, {1, 0.5, 0.25}, {math.NaN(), 0.7, math.NaN()},
	} {
		got, idle := Provider(c.pref, math.NaN(), c.sat, c.eps), Provider(c.pref, 0, c.sat, c.eps)
		if math.IsNaN(got) || math.Float64bits(got) != math.Float64bits(idle) {
			t.Errorf("Provider(%v, NaN, %v, %v) = %v, want the idle reading %v", c.pref, c.sat, c.eps, got, idle)
		}
		if neg := Provider(c.pref, -3, c.sat, c.eps); math.Float64bits(neg) != math.Float64bits(idle) {
			t.Errorf("Provider(%v, -3, %v, %v) = %v, want the idle reading %v", c.pref, c.sat, c.eps, neg, idle)
		}
	}
}

// TestProviderTermsRecompose: Provider is, bit for bit, its terms put back
// together — the contract a caller that keeps the factors relies on — and
// each factor ignores the input that belongs to the other.
func TestProviderTermsRecompose(t *testing.T) {
	f := func(pref, util, sat, eps, other float64) bool {
		t1 := NewProviderTerms(pref, util, sat, eps)
		if got, want := t1.Intention(t1.PreferenceFactor(), t1.LoadFactor()), Provider(pref, util, sat, eps); math.Float64bits(got) != math.Float64bits(want) {
			return false
		}
		t2 := t1
		t2.Util = other
		t3 := t1
		t3.Pref = other
		return math.Float64bits(t2.PreferenceFactor()) == math.Float64bits(t1.PreferenceFactor()) &&
			math.Float64bits(t3.LoadFactor()) == math.Float64bits(t1.LoadFactor())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	hostile := []float64{0, math.Copysign(0, -1), 5e-324, 0.5, 1 - 1e-16, 1, 1 + 1e-16, -1, 3, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, a := range hostile {
		for _, b := range hostile {
			for _, c := range hostile {
				if !f(a, b, c, a, b) || !f(c, a, b, b, c) {
					t.Fatalf("recomposition differs on the palette at (%v, %v, %v)", a, b, c)
				}
			}
		}
	}
}

func TestEpsilonDefaultOnInvalid(t *testing.T) {
	a := Provider(-0.5, 0.5, 0.5, 0) // ε=0 invalid → default 1
	b := Provider(-0.5, 0.5, 0.5, 1)
	if !almostEqual(a, b) {
		t.Errorf("invalid ε should fall back to 1: %v vs %v", a, b)
	}
}

func TestConsumerSignProperty(t *testing.T) {
	f := func(pref, rep, ups float64) bool {
		p := math.Mod(pref, 1)
		r := math.Mod(rep, 1)
		u := math.Abs(math.Mod(ups, 1))
		got := Consumer(p, r, u, 1)
		if p > 0 && r > 0 {
			return got > 0 && got <= 1+1e-9
		}
		return got <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProviderSignProperty(t *testing.T) {
	f := func(pref, util, sat float64) bool {
		p := math.Mod(pref, 1)
		u := math.Abs(math.Mod(util, 3))
		s := math.Abs(math.Mod(sat, 1))
		got := Provider(p, u, s, 1)
		if p > 0 && u < 1 {
			return got > 0 && got <= 1+1e-9
		}
		return got <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProviderBound holds ProviderTerms.Bound to what it promises over a
// grid of loads up to 50 times capacity: nothing on the positive branch or
// where the exact load factor costs no pow (δs ∈ {0, ½, 1}, Ut+ε = 1);
// otherwise a value between the intention and −1 — and, the reason it takes
// a root, within a tenth of the intention up to five times capacity, where
// the plain harmonic mean of Ut+ε and 1 has lost a quarter.
func TestProviderBound(t *testing.T) {
	offered := 0
	for _, eps := range []float64{0.3, 1, 2} {
		for _, pref := range []float64{-1, -0.3, 0, 0.4, 1} {
			for _, util := range []float64{0, 0.5, 0.99, 1, 1.5, 4, 9, 50} {
				for _, sat := range []float64{0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1} {
					terms := NewProviderTerms(pref, util, sat, eps)
					pi := Provider(pref, util, sat, eps)
					b, ok := terms.Bound(terms.PreferenceFactor())
					if terms.Willing || sat == 0 || sat == 0.5 || sat == 1 || util+eps == 1 || pi > -1 {
						if ok && pi > -1 {
							t.Errorf("pref %v util %v sat %v eps %v: bound %v offered for intention %v > −1", pref, util, sat, eps, b, pi)
						} else if ok {
							t.Errorf("pref %v util %v sat %v eps %v: bound %v offered where the exact value is as cheap", pref, util, sat, eps, b)
						}
						continue
					}
					if !ok {
						continue // an intention too close to −1 for the slack
					}
					offered++
					if !(pi <= b && b <= -1) {
						t.Errorf("pref %v util %v sat %v eps %v: bound %v, intention %v", pref, util, sat, eps, b, pi)
					}
					if util+eps <= 5 && b > 0.9*pi {
						t.Errorf("pref %v util %v sat %v eps %v: bound %v is more than a tenth above intention %v", pref, util, sat, eps, b, pi)
					}
				}
			}
		}
	}
	if offered < 500 { // 574 when written
		t.Errorf("%d bounds offered over the grid, want one for most unwilling points with a pow to save", offered)
	}
}
