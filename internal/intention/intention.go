// Package intention implements the intention calculus of SQLB (VLDB 2007),
// Section 5: Definition 7 (consumer intention, trading preferences for
// provider reputation via υ) and Definition 8 (provider intention, trading
// preferences for utilization via the provider's own satisfaction).
//
// Both definitions are piecewise: a positive weighted-geometric branch when
// the participant wants the interaction and circumstances allow it, and a
// negative branch whose magnitude grows with how strongly the participant
// does not want it. With the paper's ε = 1 the negative branch can exceed
// -1 in magnitude (Figure 2's surface reaches -2.5); participants *express*
// the clamped value (Section 2 fixes the range to [-1,1]) while the raw
// value is retained for plotting the Figure 2 surface.
package intention

import "math"

// DefaultEpsilon is the paper's usual setting of ε ("usually set to 1"),
// which keeps the negative branches away from 0 when a preference or
// reputation equals 1.
const DefaultEpsilon = 1.0

// Consumer computes the raw consumer intention ci_c(q,p) of Definition 7.
//
//	pref    prf_c(q,p) ∈ [-1,1]: the consumer's preference for allocating
//	        q to p.
//	rep     rep(p) ∈ [-1,1]: the provider's reputation.
//	upsilon υ ∈ [0,1]: 1 = trust only own preferences, 0 = only reputation.
//	epsilon ε > 0.
//
// Inputs are clamped to their documented domains.
func Consumer(pref, rep, upsilon, epsilon float64) float64 {
	pref = clamp(pref, -1, 1)
	rep = clamp(rep, -1, 1)
	upsilon = clamp(upsilon, 0, 1)
	epsilon = positive(epsilon)
	if pref > 0 && rep > 0 {
		return pow(pref, upsilon) * pow(rep, 1-upsilon)
	}
	return -(pow(1-pref+epsilon, upsilon) * pow(1-rep+epsilon, 1-upsilon))
}

// Provider computes the raw provider intention pi_p(q) of Definition 8.
//
//	pref  prf_p(q) ∈ [-1,1]: the provider's preference for performing q.
//	util  Ut(p) ≥ 0: the provider's current utilization.
//	sat   δs(p) ∈ [0,1]: the provider's satisfaction *based on its private
//	      preferences* (Section 5.2: the balance must rest on preferences,
//	      which only the provider itself can compute).
//	epsilon ε > 0.
//
// Inputs are clamped to their documented domains (NaN counts as the lower
// bound, an invalid ε as DefaultEpsilon).
//
// When the provider is satisfied (sat → 1) utilization dominates: it will
// accept queries it does not love while it has capacity. When dissatisfied
// (sat → 0) preferences dominate: it chases desired queries regardless of
// load. Positive intentions only arise when the provider wants the query
// and is not overutilized, which is what keeps response times good.
//
// This is the reference reading of the definition, written out in one
// piece. model.Provider.IntentionAt, the entrance the mediation paths use,
// evaluates the same expressions through ProviderTerms so that it can keep
// the two factors between calls; TestProviderTermsRecompose holds the two
// spellings to the same bits.
func Provider(pref, util, sat, epsilon float64) float64 {
	pref = clamp(pref, -1, 1)
	if !(util >= 0) { // negative or NaN
		util = 0
	}
	sat = clamp(sat, 0, 1)
	epsilon = positive(epsilon)
	if pref > 0 && util < 1 {
		return pow(pref, 1-sat) * pow(1-util, sat)
	}
	return -(pow(1-pref+epsilon, 1-sat) * pow(util+epsilon, sat))
}

// ProviderTerms is one evaluation of Definition 8 taken apart: the inputs
// clamped to their domains, the branch they select, and the two factors
// whose product (negated on the negative branch) is the intention,
//
//	 prf^(1−δs)      · (1−Ut)^δs       when prf > 0 ∧ Ut < 1,
//	−(1−prf+ε)^(1−δs) · (Ut+ε)^δs      otherwise.
//
// These are Provider's own expressions, operation for operation. The first
// factor reads only (Pref, Sat, Epsilon, Willing) and the second only
// (Util, Sat, Epsilon, Willing), so a caller that keeps a factor for as
// long as those four values keep their bits gets, through Intention, the
// very float64 Provider returns.
type ProviderTerms struct {
	Pref, Util, Sat, Epsilon float64
	// Willing selects the positive branch: the provider wants the query
	// and is not overutilized.
	Willing bool
}

// NewProviderTerms clamps Definition 8's inputs and decides its branch.
func NewProviderTerms(pref, util, sat, epsilon float64) ProviderTerms {
	pref = clamp(pref, -1, 1)
	if !(util >= 0) { // negative or NaN
		util = 0
	}
	return ProviderTerms{
		Pref:    pref,
		Util:    util,
		Sat:     clamp(sat, 0, 1),
		Epsilon: positive(epsilon),
		Willing: pref > 0 && util < 1,
	}
}

// PreferenceFactor is the factor of Definition 8 that reads the preference.
func (t *ProviderTerms) PreferenceFactor() float64 {
	if t.Willing {
		return pow(t.Pref, 1-t.Sat)
	}
	return pow(1-t.Pref+t.Epsilon, 1-t.Sat)
}

// LoadFactor is the factor of Definition 8 that reads the utilization.
func (t *ProviderTerms) LoadFactor() float64 {
	if t.Willing {
		return pow(1-t.Util, t.Sat)
	}
	return pow(t.Util+t.Epsilon, t.Sat)
}

// Intention forms pi_p(q) from the two factors of these terms.
func (t *ProviderTerms) Intention(preferenceFactor, loadFactor float64) float64 {
	if t.Willing {
		return preferenceFactor * loadFactor
	}
	return -(preferenceFactor * loadFactor)
}

// boundRelSlack is what Bound gives away to hold for the value the machine
// computes: the roundings of the root, the harmonic mean, LoadFactor's pow
// and Intention's product are each of the order of 1e-16.
const boundRelSlack = 1e-9

// Bound returns, for terms on the negative branch, a pow-free value between
// Intention(preferenceFactor, LoadFactor()) and −1, or ok false when it has
// none to offer — or none worth having: for δs ∈ {0, ½, 1}, or an idle
// provider's Ut+ε = 1, the exact load factor costs no pow either (pow
// answers exponents 0 and 1 itself, math.Pow takes ½ as Sqrt and returns a
// base of 1 as it is). With r = √(Ut+ε) and 2δs = m + f, m ∈ {0, 1},
// f ∈ [0, 1], the harmonic mean of r and 1 with weights f and 1−f is at most
// r^f, so
//
//	pi = −pf·r^m·r^f ≤ −pf·r^m·r / (f + (1−f)·r) = −L,
//
// and −L, deflated by the slack, is offered when 1 ≤ L ≤ MaxFloat64. (The
// root halves the distance to 1 on the log scale, where the mean inequality
// is tight: the plain mean of Ut+ε and 1 never exceeds 1/(1−δs), however
// overloaded the provider.) Such a value is all anyone needs of an
// intention that loses: it clamps to −1 like pi (Section 2's expressed
// range), and Definition 9 does not increase when pi decreases on its
// negative branch, so a score bound taken from it bounds the score of pi.
func (t *ProviderTerms) Bound(preferenceFactor float64) (bound float64, ok bool) {
	base := t.Util + t.Epsilon
	if t.Willing || t.Sat == 0 || t.Sat == 0.5 || t.Sat == 1 || base == 1 {
		return 0, false
	}
	r, f, rm := math.Sqrt(base), 2*t.Sat, 1.0
	if f > 1 {
		rm, f = r, f-1
	}
	l := preferenceFactor * rm * r / (f + (1-f)*r) * (1 - boundRelSlack)
	if !(l >= 1 && l <= math.MaxFloat64) {
		return 0, false
	}
	return -l, true
}

func clamp(v, lo, hi float64) float64 {
	if !(v >= lo) { // below, or NaN
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func positive(eps float64) float64 {
	if !(eps > 0) {
		return DefaultEpsilon
	}
	return eps
}

// pow is math.Pow with the fast paths that dominate this workload
// (exponents 0 and 1 appear whenever υ, δs, or ω sit at their extremes).
func pow(base, exp float64) float64 {
	switch exp {
	case 0:
		return 1
	case 1:
		return base
	}
	return math.Pow(base, exp)
}
