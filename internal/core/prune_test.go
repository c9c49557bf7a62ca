package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"sqlb/internal/randx"
)

// The bound-and-prune scan of RankTop is accepted on two grounds,
// both checked here against a literal reading of Definition 9: scoreBound
// never falls below Score (soundness), and the pruned ranking has the same
// indexes and the same score bits as scoring every candidate and sorting
// them all (equivalence).

// boundHolds is the soundness property. A NaN bound is a refusal to bound
// (the scan scores the candidate). A NaN score under a numeric bound is
// fine too: NaN ranks below every number, and the scan only skips when the
// bound is below a numeric threshold.
func boundHolds(pi, ci, omega, epsilon float64) bool {
	b := scoreBound(pi, ci, omega, epsilon)
	return math.IsNaN(b) || !(Score(pi, ci, omega, epsilon) > b)
}

// hostileFloats are the operands the mean inequalities are most likely to
// lose on: zeros, subnormals, the ends of the range, values around the
// branch points of Definition 9 (0, 1, 1+ε), infinities and NaN.
var hostileFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
	1e-17, -1e-17, 0.25, 0.5, 1 - 1e-16, 1, 1 + 1e-16, 2, 2 + 1e-15, 3, -1, -2.5,
	1e17, -1e17, 1e200, -1e200, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// hostileFloat draws from the palette, from the whole exponent range, or
// from the expressed-intention range, a third each.
func hostileFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return hostileFloats[r.Intn(len(hostileFloats))]
	case 1:
		return math.Float64frombits(r.Uint64())
	}
	return r.Float64()*4 - 2
}

func TestScoreBoundDominatesScore(t *testing.T) {
	for _, pi := range hostileFloats {
		for _, ci := range hostileFloats {
			for _, omega := range []float64{0, 5e-324, 1e-20, 0.001, 0.5, 0.999, 1 - 1e-16, 1, -1, 2, math.NaN()} {
				for _, eps := range []float64{1, 0, -1, 5e-324, 1e-9, 1e300, math.MaxFloat64, math.Inf(1), math.NaN()} {
					if !boundHolds(pi, ci, omega, eps) {
						t.Fatalf("scoreBound(%v, %v, %v, %v) = %v < Score = %v", pi, ci, omega, eps,
							scoreBound(pi, ci, omega, eps), Score(pi, ci, omega, eps))
					}
				}
			}
		}
	}
	cfg := &quick.Config{
		MaxCount: 200000,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(hostileFloat(r))
			}
		},
	}
	if err := quick.Check(boundHolds, cfg); err != nil {
		t.Error(err)
	}
	// Equal operands are where the means coincide and only the slack keeps
	// the bound on the right side of pow's rounding.
	equal := func(x, omega float64) bool {
		x = math.Abs(x)
		return boundHolds(x, x, omega, 1) && boundHolds(-x, -x, omega, 1) && boundHolds(1-x, 1-x, omega, x)
	}
	if err := quick.Check(equal, cfg); err != nil {
		t.Error(err)
	}
}

func FuzzScoreBound(f *testing.F) {
	f.Add(0.8, 0.5, 0.5, 1.0)
	f.Add(-0.3, 0.9, 0.25, 1.0)
	f.Add(5e-324, 5e-324, 0.5, 1.0)
	f.Add(5.0, -0.5, 1.0, 1.0) // negative base with ω = 1: Score is positive
	f.Add(1.0, 0.0, 0.0, 5e-324)
	f.Add(math.Inf(1), 1.0, 0.0, -1.0)
	f.Add(-1e308, 0.5, 0.5, 1e308)
	f.Fuzz(func(t *testing.T, pi, ci, omega, epsilon float64) {
		if !boundHolds(pi, ci, omega, epsilon) {
			t.Fatalf("scoreBound(%v, %v, %v, %v) = %v < Score = %v", pi, ci, omega, epsilon,
				scoreBound(pi, ci, omega, epsilon), Score(pi, ci, omega, epsilon))
		}
	})
}

// TestRanksBeforeStrictTotalOrder: over scores that include NaN, ±Inf and
// signed zeros, exactly one of a-before-b and b-before-a holds for a ≠ b,
// and the order is transitive — so the heap's result cannot depend on the
// order in which candidates are evaluated.
func TestRanksBeforeStrictTotalOrder(t *testing.T) {
	scores := []float64{math.NaN(), 1, math.Inf(1), math.NaN(), -1, 0, math.Copysign(0, -1), math.Inf(-1), 1, math.NaN()}
	before := func(a, b int) bool { return ranksBefore(scores[a], scores[b], a, b) }
	for a := range scores {
		if before(a, a) {
			t.Errorf("%d ranks before itself", a)
		}
		for b := range scores {
			if a != b && before(a, b) == before(b, a) {
				t.Errorf("before(%d,%d) == before(%d,%d) == %v", a, b, b, a, before(a, b))
			}
			for c := range scores {
				if before(a, b) && before(b, c) && !before(a, c) {
					t.Errorf("not transitive over %d, %d, %d", a, b, c)
				}
			}
		}
	}
	want := []int{2, 1, 8, 5, 6, 4, 7, 0, 3, 9} // +Inf, the 1s, the zeros, -1, -Inf, then the NaNs
	if got := SelectTopN(new(Scratch), len(scores), len(scores), before); !equalInts(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

// oracleRank is the literal Definition 9 ranking: score every candidate
// with Score, stable-sort all of them by descending score with NaN last
// (the input order is the index order, so stability is the lower-index
// tie-break), keep the first n.
func oracleRank(n int, pi, ci, omegas []float64, epsilon float64) []Ranked {
	all := make([]Ranked, len(pi))
	for i := range all {
		all[i] = Ranked{Index: i, Score: Score(pi[i], ci[i], omegas[i], epsilon)}
	}
	sort.SliceStable(all, func(a, b int) bool {
		sa, sb := all[a].Score, all[b].Score
		if math.IsNaN(sa) || math.IsNaN(sb) {
			return !math.IsNaN(sa) && math.IsNaN(sb)
		}
		return sa > sb
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// sameRanking compares indexes and score bits, so a NaN equals itself and
// a last-ulp difference does not pass.
func sameRanking(got, want []Ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}

// rankFamilies are the input shapes of the equivalence test. Each fills
// pi, ci and omegas for one trial.
var rankFamilies = []struct {
	name string
	fill func(rng *randx.Rand, pi, ci, om []float64)
}{
	{"random", func(rng *randx.Rand, pi, ci, om []float64) {
		for i := range pi {
			pi[i], ci[i], om[i] = rng.Uniform(-2.5, 1), rng.Uniform(-2.5, 1), rng.Float64()
		}
	}},
	{"heavy ties", func(rng *randx.Rand, pi, ci, om []float64) {
		for i := range pi {
			pi[i] = math.Round(rng.Uniform(-1, 1)*2) / 2
			ci[i] = math.Round(rng.Uniform(-1, 1)*2) / 2
			om[i] = math.Round(rng.Float64()*2) / 2
		}
	}},
	{"all equal", func(rng *randx.Rand, pi, ci, om []float64) {
		p, c, o := rng.Uniform(-1, 1), rng.Uniform(-1, 1), rng.Float64()
		for i := range pi {
			pi[i], ci[i], om[i] = p, c, o
		}
	}},
	{"all negative branch", func(rng *randx.Rand, pi, ci, om []float64) {
		for i := range pi {
			pi[i], ci[i], om[i] = rng.Uniform(-2.5, 0), rng.Uniform(-2.5, 1), rng.Float64()
		}
	}},
	// Strictly ascending positive scores: every candidate beats the heap's
	// worst, nothing prunes.
	{"ascending", func(rng *randx.Rand, pi, ci, om []float64) {
		o := rng.Float64()
		for i := range pi {
			v := float64(i+1) / float64(len(pi)+1)
			pi[i], ci[i], om[i] = v, v, o
		}
	}},
	{"hostile", func(rng *randx.Rand, pi, ci, om []float64) {
		pick := func() float64 {
			if rng.Bool(0.7) {
				return rng.Uniform(-2.5, 1)
			}
			return hostileFloats[rng.Pick(len(hostileFloats))]
		}
		for i := range pi {
			pi[i], ci[i], om[i] = pick(), pick(), rng.Float64()
			if rng.Bool(0.1) {
				om[i] = hostileFloats[rng.Pick(len(hostileFloats))]
			}
		}
	}},
}

// TestRankTopPrunedEqualsOracle is the equivalence check of the pruned
// scan: same indexes, bit-equal scores, for the n values around both ends.
func TestRankTopPrunedEqualsOracle(t *testing.T) {
	rng := randx.New(12)
	var scratch Scratch
	for _, fam := range rankFamilies {
		for trial := 0; trial < 40; trial++ {
			total := 2 + rng.Pick(500)
			pi := make([]float64, total)
			ci := make([]float64, total)
			om := make([]float64, total)
			fam.fill(rng, pi, ci, om)
			eps := []float64{1, 0, 0.5, 3}[trial%4]
			for _, n := range []int{1, 4, 32, total - 1, total} {
				want := oracleRank(n, pi, ci, om, eps)
				// A zero-value scratch and one warm with the stale buffers
				// of every earlier call must both agree with the oracle.
				if got := RankTop(new(Scratch), n, pi, ci, om, eps, nil); !sameRanking(got, want) {
					t.Fatalf("%s, total %d, n %d, ε %v: fresh-scratch RankTop = %v, oracle %v", fam.name, total, n, eps, got, want)
				}
				if got := RankTop(&scratch, n, pi, ci, om, eps, nil); !sameRanking(got, want) {
					t.Fatalf("%s, total %d, n %d, ε %v: warm-scratch RankTop = %v, oracle %v", fam.name, total, n, eps, got, want)
				}
			}
		}
	}
}

// TestRankTopEvaluatesFewCandidates pins that the scan prunes at all: the
// score buffer is poisoned, and a slot the call left poisoned is a
// candidate whose Score was never computed. On uniform intentions the
// bound removes most of a 400-wide Pq; on ascending scores it must remove
// none, and n == total keeps the full evaluation.
func TestRankTopEvaluatesFewCandidates(t *testing.T) {
	const total = 400
	poison := math.Float64frombits(0x7ff8_dead_beef_0001)
	evaluated := func(s *Scratch, n int, pi, ci, om []float64) int {
		buf := s.F2(total)
		for i := range buf {
			buf[i] = poison
		}
		RankTop(s, n, pi, ci, om, 1, nil)
		count := 0
		for _, v := range s.F2(total) {
			if math.Float64bits(v) != math.Float64bits(poison) {
				count++
			}
		}
		return count
	}
	rng := randx.New(5)
	pi := make([]float64, total)
	ci := make([]float64, total)
	om := make([]float64, total)
	var s Scratch
	rankFamilies[0].fill(rng, pi, ci, om)
	if got := evaluated(&s, 4, pi, ci, om); got > total/4 {
		t.Errorf("random intentions, n=4: %d of %d candidates scored, want at most a quarter", got, total)
	}
	if got := evaluated(&s, total, pi, ci, om); got != total {
		t.Errorf("n == total scored %d of %d candidates", got, total)
	}
	rankFamilies[4].fill(rng, pi, ci, om)
	if got := evaluated(&s, 4, pi, ci, om); got != total {
		t.Errorf("ascending scores, n=4: %d of %d candidates scored, want all", got, total)
	}
}
