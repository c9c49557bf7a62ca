package core

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOmegaEquation6(t *testing.T) {
	tests := []struct {
		cs, ps, want float64
	}{
		{0.5, 0.5, 0.5}, // equal satisfaction: even balance
		{1, 0, 1},       // happy consumer, miserable provider: provider counts
		{0, 1, 0},       // miserable consumer: consumer counts
		{0.8, 0.6, 0.6},
		{0.2, 0.9, 0.15},
	}
	for _, tt := range tests {
		if got := Omega(tt.cs, tt.ps); !almostEqual(got, tt.want) {
			t.Errorf("Omega(%v,%v) = %v, want %v", tt.cs, tt.ps, got, tt.want)
		}
	}
	// Garbage inputs clamp rather than escape [0,1].
	if got := Omega(5, -3); got < 0 || got > 1 {
		t.Errorf("Omega out of range: %v", got)
	}
	if got := Omega(math.NaN(), 0.5); math.IsNaN(got) {
		t.Error("Omega must not propagate NaN")
	}
}

func TestScoreDefinition9(t *testing.T) {
	// Positive branch: both want it.
	if got := Score(0.8, 0.5, 1, 1); !almostEqual(got, 0.8) {
		t.Errorf("ω=1 score = %v, want provider intention 0.8", got)
	}
	if got := Score(0.8, 0.5, 0, 1); !almostEqual(got, 0.5) {
		t.Errorf("ω=0 score = %v, want consumer intention 0.5", got)
	}
	if got := Score(0.9, 0.4, 0.5, 1); !almostEqual(got, math.Sqrt(0.9*0.4)) {
		t.Errorf("ω=0.5 score = %v, want geometric mean", got)
	}
	// Negative branch whenever either side does not want it.
	if got := Score(-0.5, 0.9, 0.5, 1); got >= 0 {
		t.Errorf("unwilling provider must score negative, got %v", got)
	}
	if got := Score(0.9, -0.5, 0.5, 1); got >= 0 {
		t.Errorf("unwanted provider must score negative, got %v", got)
	}
	// Exact negative-branch value: pi=-1, ci=-1, ω=0.5, ε=1:
	// -( (1+1+1)^0.5 · (1+1+1)^0.5 ) = -3.
	if got := Score(-1, -1, 0.5, 1); !almostEqual(got, -3) {
		t.Errorf("score = %v, want -3", got)
	}
	// ε prevents zero when an intention equals 1 in the negative branch.
	if got := Score(1, -1, 0.5, 1); got == 0 {
		t.Error("ε must keep the negative branch away from 0")
	}
	// Invalid ε falls back to the default.
	if a, b := Score(-0.2, 0.3, 0.5, 0), Score(-0.2, 0.3, 0.5, 1); !almostEqual(a, b) {
		t.Errorf("ε=0 should default to 1: %v vs %v", a, b)
	}
}

func TestScoreMutualDesireBeatsOneSided(t *testing.T) {
	mutual := Score(0.6, 0.6, 0.5, 1)
	oneSided := Score(0.9, -0.1, 0.5, 1)
	if mutual <= oneSided {
		t.Errorf("mutual desire %v should outrank one-sided %v", mutual, oneSided)
	}
}

// rankAll is the whole ranking R⃗_q at ε = 1, on a scratch of its own so the
// result outlives later calls.
func rankAll(pi, ci, om []float64) []Ranked {
	return RankTop(new(Scratch), len(pi), pi, ci, om, 1, nil)
}

func TestRankOrdering(t *testing.T) {
	// eWine's Table 1 with intentions (binary, as in the example): only p5
	// has positive intentions on both sides.
	pi := []float64{1, -1, 1, -1, 1}
	ci := []float64{-1, 1, -1, 1, 1}
	om := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	r := rankAll(pi, ci, om)
	if len(r) != 5 {
		t.Fatalf("ranking length = %d", len(r))
	}
	if r[0].Index != 4 {
		t.Errorf("best-ranked = p%d, want p5 (index 4), ranking %v", r[0].Index+1, r)
	}
	if r[0].Score <= 0 {
		t.Errorf("p5 score = %v, want positive", r[0].Score)
	}
	for i := 1; i < len(r); i++ {
		if r[i].Score > r[i-1].Score {
			t.Fatalf("ranking not sorted at %d: %v", i, r)
		}
	}
}

func TestRankDeterministicTies(t *testing.T) {
	pi := []float64{0.5, 0.5, 0.5}
	ci := []float64{0.5, 0.5, 0.5}
	om := []float64{0.5, 0.5, 0.5}
	r := rankAll(pi, ci, om)
	for i, want := range []int{0, 1, 2} {
		if r[i].Index != want {
			t.Fatalf("tie-break not by index: %v", r)
		}
	}
}

func TestRankMismatchedLengths(t *testing.T) {
	r := rankAll([]float64{1, 1, 1}, []float64{1}, []float64{0.5, 0.5})
	if len(r) != 1 {
		t.Errorf("ranking over mismatched inputs = %d entries, want 1", len(r))
	}
}

func TestSelectAlgorithm1(t *testing.T) {
	ranking := []Ranked{{Index: 2, Score: 0.9}, {Index: 0, Score: 0.5}, {Index: 1, Score: -1}}
	var s Scratch
	// q.n = 2 of N = 3.
	if got := Select(&s, 2, ranking); len(got) != 2 || got[0] != 2 || got[1] != 0 {
		t.Errorf("Select(2) = %v, want [2 0]", got)
	}
	// q.n > N: all providers selected (Algorithm 1's min(q.n, N)).
	if got := Select(&s, 5, ranking); len(got) != 3 {
		t.Errorf("Select(5) over 3 providers = %v, want all 3", got)
	}
	// q.n < 1 treated as 1.
	if got := Select(&s, 0, ranking); len(got) != 1 || got[0] != 2 {
		t.Errorf("Select(0) = %v, want [2]", got)
	}
	// Empty ranking selects nothing.
	if got := Select(&s, 1, nil); len(got) != 0 {
		t.Errorf("Select over empty ranking = %v, want empty", got)
	}
}

func TestScoreMonotoneInIntentionsProperty(t *testing.T) {
	// In the positive branch the score grows with either intention.
	f := func(pi, ci, d uint8) bool {
		p := float64(pi%100)/100 + 0.005
		c := float64(ci%100)/100 + 0.005
		delta := float64(d%50)/100 + 0.01
		base := Score(p, c, 0.5, 1)
		if p+delta <= 1 && Score(p+delta, c, 0.5, 1) < base-1e-12 {
			return false
		}
		if c+delta <= 1 && Score(p, c+delta, 0.5, 1) < base-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScoreSignProperty(t *testing.T) {
	f := func(pi, ci, om float64) bool {
		p := math.Mod(pi, 1)
		c := math.Mod(ci, 1)
		o := math.Abs(math.Mod(om, 1))
		got := Score(p, c, o, 1)
		if p > 0 && c > 0 {
			return got > 0
		}
		return got <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRankCompleteProperty(t *testing.T) {
	// The whole ranking is a permutation of the input indexes.
	f := func(raw []float64) bool {
		n := len(raw)
		pi := make([]float64, n)
		ci := make([]float64, n)
		om := make([]float64, n)
		for i, v := range raw {
			pi[i] = math.Mod(v, 1)
			ci[i] = math.Mod(v*3, 1)
			om[i] = 0.5
		}
		r := rankAll(pi, ci, om)
		if len(r) != n {
			return false
		}
		seen := make(map[int]bool, n)
		for _, e := range r {
			if e.Index < 0 || e.Index >= n || seen[e.Index] {
				return false
			}
			seen[e.Index] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
