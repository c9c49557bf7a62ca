// Package core implements the heart of SQLB (VLDB 2007, Section 5.3-5.4):
// the provider score of Definition 9, the adaptive consumer/provider
// balance ω of Equation 6, the provider ranking R⃗_q, and the query
// allocation principle of Algorithm 1.
//
// The score balances the consumer's intention to allocate its query to a
// provider against that provider's intention to perform it. The balance
// exponent ω adapts to the participants' observed (intention-based)
// satisfactions so that whichever side the mediator has satisfied less gets
// more weight — the fairness mechanism that distinguishes SQLB from the
// baselines.
package core

import (
	"math"
)

// DefaultEpsilon is ε of Definition 9 ("usually set to 1").
const DefaultEpsilon = 1.0

// Omega computes ω (Equation 6) from the consumer's and the provider's
// observed satisfaction:
//
//	ω = ((δs(c) − δs(p)) + 1) / 2
//
// Both satisfactions must be the intention-based ones the mediator can see
// (Section 5.3: the allocation module has no access to private
// preferences). ω → 1 gives all weight to the provider's intention (the
// consumer has been doing well), ω → 0 all weight to the consumer's.
func Omega(consumerSat, providerSat float64) float64 {
	return ((clamp01(consumerSat) - clamp01(providerSat)) + 1) / 2
}

// Score computes scr_q(p) (Definition 9) from the provider's intention pi,
// the consumer's intention ci, the balance ω, and ε > 0:
//
//	scr = pi^ω · ci^(1−ω)                       if pi > 0 ∧ ci > 0
//	scr = −((1−pi+ε)^ω · (1−ci+ε)^(1−ω))        otherwise
//
// A provider scores positively only when both sides want the interaction.
func Score(pi, ci, omega, epsilon float64) float64 {
	omega, epsilon = clamp01(omega), positiveEpsilon(epsilon)
	if pi > 0 && ci > 0 {
		return pow(pi, omega) * pow(ci, 1-omega)
	}
	return -(pow(1-pi+epsilon, omega) * pow(1-ci+epsilon, 1-omega))
}

// Ranked is one entry of the ranking vector R⃗_q: the index of the provider
// within Pq and its score.
type Ranked struct {
	Index int
	Score float64
}

// Relative and absolute slack of scoreBound. The relative part covers what
// separates the computed Score from the real-number value the mean
// inequalities speak about: math.Pow's rounding (under 1 ulp per call), the
// product's, and the exponent fl(1−ω) standing in for 1−ω, which moves the
// result by a factor of at most exp(2⁻⁵³·|ln x|) ≤ 1 + 1e-13 over the whole
// float64 range — all orders of magnitude below 1e-9. The absolute part
// covers subnormal results, where relative error is unbounded but absolute
// error is a few times 5e-324.
const (
	boundRelSlack = 1e-9
	boundAbsSlack = 1e-300
)

// noBound is what a bound returns when it has none to offer. It is NaN,
// which every < comparison refuses; a variable, not a math.NaN() call,
// keeps scoreBound within the compiler's inlining budget.
var noBound = math.NaN()

// scoreBound returns an upper bound on Score(pi, ci, omega, epsilon) that
// costs no math.Pow, or NaN when it has none to offer. With weights ω and
// 1−ω the geometric mean lies between the harmonic and the arithmetic one:
//
//	pi^ω · ci^(1−ω) ≤ ω·pi + (1−ω)·ci                     (pi, ci > 0)
//	−(a^ω · b^(1−ω)) ≤ −1 / (ω/a + (1−ω)/b)                (a, b > 0)
//
// where a = 1−pi+ε and b = 1−ci+ε are the bases of Definition 9's negative
// branch. ω and ε must be as Score uses them, clamp01(ω) and
// positiveEpsilon(ε); the caller normalizes them, which keeps this small
// enough to inline. The bound is inflated by the slack above, so it is
// never below the Score the machine computes; outside the inequalities'
// domain (a non-positive base, an operand that makes 0·∞, an overflow) it
// is NaN. Callers compare with <, which is false for NaN and so falls
// through to the exact score.
func scoreBound(pi, ci, omega, epsilon float64) float64 {
	if pi > 0 && ci > 0 {
		return (omega*pi+(1-omega)*ci)*(1+boundRelSlack) + boundAbsSlack
	}
	a, b := 1-pi+epsilon, 1-ci+epsilon
	hm := 1 / (omega/a + (1-omega)/b)
	// Near MaxFloat64 the reciprocals are subnormal and hm can round up to
	// +Inf while the true mean is finite: no bound then either.
	if !(a > 0 && b > 0 && hm <= math.MaxFloat64) {
		return noBound
	}
	return -hm*(1-boundRelSlack) + boundAbsSlack
}

// halfMeanBound is scoreBound's tighter second level, still pow-free: the
// weighted power means of order ±½ lie between the geometric mean and
// those of order ±1, M₋₁ ≤ M₋½ ≤ G ≤ M½ ≤ M₁, so Score ≤ (ω·√pi +
// (1−ω)·√ci)² on the positive branch and ≤ −(ω/√a + (1−ω)/√b)⁻² on the
// negative one, with scoreBound's a, b, slack, NaN rule and ω and ε.
func halfMeanBound(pi, ci, omega, epsilon float64) float64 {
	if pi > 0 && ci > 0 {
		m := omega*math.Sqrt(pi) + (1-omega)*math.Sqrt(ci)
		return m*m*(1+boundRelSlack) + boundAbsSlack
	}
	a, b := 1-pi+epsilon, 1-ci+epsilon
	r := 1 / (omega/math.Sqrt(a) + (1-omega)/math.Sqrt(b))
	m := r * r
	if !(a > 0 && b > 0 && m <= math.MaxFloat64) {
		return noBound
	}
	return -m*(1-boundRelSlack) + boundAbsSlack
}

// ranksBefore is the ranking order of R⃗_q as a strict total order on
// (score, index) pairs: higher score first, NaN below every number (a
// hostile intention must not make the order depend on evaluation sequence),
// lower index first among equals.
func ranksBefore(sa, sb float64, a, b int) bool {
	if sa > sb {
		return true
	}
	if sa < sb {
		return false
	}
	if sa != sb { // at least one NaN
		if an, bn := sa != sa, sb != sb; an != bn {
			return bn
		}
	}
	return a < b
}

// Resolver stands behind a pi vector some of whose entries are deferred:
// upper bounds ≤ −1 of the provider's intention, left by whoever gathered
// the vector because a losing candidate does not need the exact value's pow
// (model.Provider.IntentionOrBound).
type Resolver interface {
	// Resolve makes pi[i] exact if it is a bound.
	Resolve(i int)
}

// RankTop scores the providers of Pq and returns the n best entries of the
// ranking R⃗_q, best first (Section 5.3); n ≥ |Pq| gives the whole ranking.
// pi and ci are the providers' and the consumer's intentions, indexed
// alike; omegas carries the per-provider ω (Equation 6 uses each
// provider's own observed satisfaction). Ties break on the lower index so
// rankings are deterministic, and RankTop(s, n, …) is always a prefix of
// the whole ranking. pi, ci and omegas must have equal length; entries
// beyond the shortest are ignored defensively.
//
// Every intermediate — the score vector (Scratch.F2), the top-n heap
// (Scratch.I1), and the returned ranking (Scratch.R1) — is carved from s,
// making the whole score/rank/select pipeline allocation-free once the
// buffers are warm. The result is valid until the next call that uses R1.
//
// For n < |Pq| the full sort is never materialized — the win on the
// mediation hot path, where q.n ≪ |Pq| — and the scan is best-first
// bound-and-prune: the n candidates with the highest scoreBound (NaN
// counting as +Inf, ties to the lower index) seed the heap with exact
// scores, and any other is scored only if neither scoreBound nor
// halfMeanBound is strictly below the heap's worst score. A skipped
// candidate's Score is ≤ its bound < the n-th best so far, so it could not
// have entered the heap under any tie-break; the heap order being a strict
// total order, the selected indexes and their Score bits are those of
// scoring everyone, in whatever order they are visited. F2 then holds the
// scores of the evaluated candidates only; the other slots are stale.
//
// lazy is nil when every pi[i] is exact. Otherwise RankTop resolves a
// candidate before it scores it, and only then: Score does not increase
// when pi decreases on the negative branch, so either bound of a deferred
// entry bounds the score of the exact one, and a candidate pruned on it
// stays deferred.
func RankTop(s *Scratch, n int, pi, ci, omegas []float64, epsilon float64, lazy Resolver) []Ranked {
	total := min(len(pi), len(ci), len(omegas))
	pi, ci, omegas = pi[:total], ci[:total], omegas[:total]
	if n > total {
		n = total
	}
	scores := s.F2(total)
	before := func(a, b int) bool { return ranksBefore(scores[a], scores[b], a, b) }
	score := func(i int) {
		if lazy != nil {
			lazy.Resolve(i)
		}
		scores[i] = Score(pi[i], ci[i], omegas[i], epsilon)
	}
	var idx []int
	if n == total {
		for i := 0; i < total; i++ {
			score(i)
		}
		idx = SelectTopN(s, total, n, before)
	} else if n > 0 {
		s.bounds = growFloats(s.bounds, total)
		bounds, top, best, eps := s.bounds, 0, math.Inf(-1), positiveEpsilon(epsilon)
		for i := range bounds {
			b := scoreBound(pi[i], ci[i], clamp01(omegas[i]), eps)
			if b != b {
				b = math.Inf(1)
			}
			bounds[i] = b
			if b > best {
				top, best = i, b
			}
		}
		higher := func(a, b int) bool { return ranksBefore(bounds[a], bounds[b], a, b) }
		if n == 1 {
			idx = s.I1(1)
			idx[0] = top
		} else {
			idx = SelectTopN(s, total, n, higher)
		}
		// A candidate is a seed unless the lowest seed outranks its bound.
		last := idx[n-1]
		for _, i := range idx {
			score(i)
		}
		// idx is a max-heap under before: idx[0] is the worst of the n
		// best so far, the one a further candidate has to beat.
		for i := n/2 - 1; i >= 0; i-- {
			siftDown(idx, i, before)
		}
		worst := scores[idx[0]]
		for i, b := range bounds {
			if b < worst || !higher(last, i) || halfMeanBound(pi[i], ci[i], clamp01(omegas[i]), eps) < worst {
				continue
			}
			score(i)
			if before(i, idx[0]) {
				idx[0] = i
				siftDown(idx, 0, before)
				worst = scores[idx[0]]
			}
		}
		sortIdx(idx, before)
	}
	ranking := s.R1(len(idx))
	for i, j := range idx {
		ranking[i] = Ranked{Index: j, Score: scores[j]}
	}
	return ranking
}

// Split is what the gather of a ranking's candidates knows of Definition
// 9's two branches before any score is taken.
type Split struct {
	// Candidates lists, ascending, every slot whose pi > 0, and may list
	// others.
	Candidates []int
	// Ceiling is at least every pi and ci of the ranking; NaN if one is
	// NaN.
	Ceiling float64
}

// SplitOf returns the Split of pi and ci, listing exactly the slots with
// pi > 0 in a buffer of s that only SplitOf uses.
func SplitOf(s *Scratch, pi, ci []float64) Split {
	total := min(len(pi), len(ci))
	split := Split{Candidates: s.cand[:0], Ceiling: math.Inf(-1)}
	for i, v := range pi[:total] {
		if v > 0 {
			split.Candidates = append(split.Candidates, i)
		}
		split.Ceiling = Raise(Raise(split.Ceiling, v), ci[i])
	}
	s.cand = split.Candidates
	return split
}

// Raise returns the larger of a Split's Ceiling c and v, NaN if either is
// NaN. Unlike the builtin max it does not order −0 below +0, which the
// Ceiling has no use for, and so it costs a compare instead of max's
// signed-zero fix-up on a loop-carried maximum: 1.3 µs per 400 slots in
// SplitOf, against 4.3 µs with max.
func Raise(c, v float64) float64 {
	if v > c || v != v {
		return v
	}
	return c
}

// RankSplit is RankTop for a ranking whose ω comes per slot, omega(i), and
// whose Split is known: it returns RankTop's entries and Score bits, and
// calls omega only for the candidates it bounds or scores.
//
// A score on Definition 9's positive branch is ≥ 0 or NaN. On the negative
// branch it is −(a^ω · b^(1−ω)) with bases a = 1−pi+ε and b = 1−ci+ε, which
// is −0 or below, or NaN, unless a base is negative. No base is when
// 1−Ceiling+ε ≥ 0: the rounding of each operation is monotone, so that
// bounds every base from below. Otherwise a negative-branch score can be
// positive — pi = −7, ci = 1e300 and ω = 0 score +1e300. So where no base
// is negative, at least n candidates have pi > 0 ∧ ci > 0, and the n-th
// best of them scores strictly above 0, those n head the ranking, and
// RankSplit ranks the positive branch alone. Anything else ranks every
// candidate, as RankTop does: too few positive candidates, a possibly
// negative base, or an n-th best of +0 (which only ties a −0, and then
// yields to the lower index) or NaN. A weighted geometric mean of positive
// operands comes out neither, so the last is one comparison that keeps
// the split exact whatever Score rounds to.
//
// Besides RankTop's buffers it uses a compacted copy of the positive
// candidates' pi, ci and ω in s, which no accessor hands out. Positive
// candidates are exact, so lazy is consulted only when every candidate is
// ranked.
func RankSplit(s *Scratch, n int, pi, ci []float64, split Split, omega func(int) float64, epsilon float64, lazy Resolver) []Ranked {
	total := min(len(pi), len(ci))
	if n = min(n, total); n <= 0 {
		return s.R1(0)
	}
	if 1-split.Ceiling+positiveEpsilon(epsilon) >= 0 {
		pos := s.pos[:0]
		for _, i := range split.Candidates {
			if i >= 0 && i < total && pi[i] > 0 && ci[i] > 0 {
				pos = append(pos, i)
			}
		}
		s.pos = pos
		if len(pos) >= n {
			s.posPI, s.posCI = growFloats(s.posPI, len(pos)), growFloats(s.posCI, len(pos))
			s.omegas = growFloats(s.omegas, len(pos))
			for j, i := range pos {
				s.posPI[j], s.posCI[j], s.omegas[j] = pi[i], ci[i], omega(i)
			}
			if ranking := RankTop(s, n, s.posPI, s.posCI, s.omegas, epsilon, nil); ranking[n-1].Score > 0 {
				for j := range ranking {
					ranking[j].Index = pos[ranking[j].Index]
				}
				return ranking
			}
		}
	}
	s.omegas = growFloats(s.omegas, total)
	for i := range s.omegas {
		s.omegas[i] = omega(i)
	}
	return RankTop(s, n, pi, ci, s.omegas, epsilon, lazy)
}

// Select implements the allocation step of Algorithm 1 (lines 9-10): the
// min(n, N) best-ranked providers get the query (All⃗oc[R⃗_q[i]] ← 1), the
// rest do not. It returns the selected Pq indexes in rank order, carved
// from the scratch's second index buffer (Scratch.I2) and valid until the
// next call that uses I2.
func Select(s *Scratch, n int, ranking []Ranked) []int {
	if n < 1 {
		n = 1
	}
	take := n
	if take > len(ranking) {
		take = len(ranking)
	}
	selected := s.I2(take)
	for i := 0; i < take; i++ {
		selected[i] = ranking[i].Index
	}
	return selected
}

// positiveEpsilon is ε as Definition 9 uses it: DefaultEpsilon unless ε > 0.
func positiveEpsilon(epsilon float64) float64 {
	if epsilon > 0 {
		return epsilon
	}
	return DefaultEpsilon
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	}
	return math.Pow(base, exp)
}
