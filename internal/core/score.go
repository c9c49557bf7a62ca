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
	omega = clamp01(omega)
	if !(epsilon > 0) {
		epsilon = DefaultEpsilon
	}
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

// scoreBound returns an upper bound on Score(pi, ci, omega, epsilon) that
// costs no math.Pow, or NaN when it has none to offer. With weights ω and
// 1−ω the geometric mean lies between the harmonic and the arithmetic one:
//
//	pi^ω · ci^(1−ω) ≤ ω·pi + (1−ω)·ci                     (pi, ci > 0)
//	−(a^ω · b^(1−ω)) ≤ −1 / (ω/a + (1−ω)/b)                (a, b > 0)
//
// where a = 1−pi+ε and b = 1−ci+ε are the bases of Definition 9's negative
// branch. The bound is inflated by the slack above, so it is never below
// the Score the machine computes; outside the inequalities' domain (a
// non-positive base, an operand that makes 0·∞, an overflow) it is NaN.
// Callers compare with <, which is false for NaN and so falls through to
// the exact score.
func scoreBound(pi, ci, omega, epsilon float64) float64 {
	omega = clamp01(omega)
	if !(epsilon > 0) {
		epsilon = DefaultEpsilon
	}
	if pi > 0 && ci > 0 {
		return (omega*pi+(1-omega)*ci)*(1+boundRelSlack) + boundAbsSlack
	}
	a, b := 1-pi+epsilon, 1-ci+epsilon
	hm := 1 / (omega/a + (1-omega)/b)
	// Near MaxFloat64 the reciprocals are subnormal and hm can round up to
	// +Inf while the true mean is finite: no bound then either.
	if !(a > 0 && b > 0 && hm <= math.MaxFloat64) {
		return math.NaN()
	}
	return -hm*(1-boundRelSlack) + boundAbsSlack
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
// mediation hot path, where q.n ≪ |Pq| — and the scan is bound-and-prune:
// the first n candidates seed the heap with exact scores; every later one
// is scored only if scoreBound is not strictly below the heap's worst
// score. A skipped candidate's Score is ≤ its bound < the n-th best so far,
// so it could not have entered the heap under any tie-break, and the
// selected indexes and their Score bits are those of scoring everyone. F2
// then holds the scores of the evaluated candidates only; the other slots
// are stale.
//
// lazy is nil when every pi[i] is exact. Otherwise RankTop resolves a
// candidate before it scores it, and only then: Score does not increase
// when pi decreases on the negative branch, so scoreBound of a deferred
// entry bounds the score of the exact one, and a candidate pruned on it
// stays deferred.
func RankTop(s *Scratch, n int, pi, ci, omegas []float64, epsilon float64, lazy Resolver) []Ranked {
	total := len(pi)
	if len(ci) < total {
		total = len(ci)
	}
	if len(omegas) < total {
		total = len(omegas)
	}
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
		// idx is a max-heap under before: idx[0] is the worst of the n
		// best so far, the one a further candidate has to beat.
		idx = s.I1(n)
		for i := range idx {
			idx[i] = i
			score(i)
		}
		for i := n/2 - 1; i >= 0; i-- {
			siftDown(idx, i, before)
		}
		for i := n; i < total; i++ {
			if scoreBound(pi[i], ci[i], omegas[i], epsilon) < scores[idx[0]] {
				continue
			}
			score(i)
			if before(i, idx[0]) {
				idx[0] = i
				siftDown(idx, 0, before)
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
