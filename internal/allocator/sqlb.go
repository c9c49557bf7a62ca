package allocator

import (
	"sqlb/internal/core"
)

// SQLB is the paper's Satisfaction-based Query Load Balancing method
// (Section 5): providers are scored by Definition 9 with the per-provider
// adaptive ω of Equation 6 and the q.n best-scored are selected
// (Algorithm 1).
//
// Definition 9 scores at ε = core.DefaultEpsilon, the paper's setting;
// model.Config.Epsilon is the ε of Definitions 7 and 8 only.
type SQLB struct {
	// FixedOmega, when non-nil, overrides Equation 6 with a constant ω —
	// the paper's note that ω can be set by application kind (e.g. ω = 0
	// for cooperative providers where only result quality matters). Used
	// by the ablation benchmarks.
	FixedOmega *float64
}

// NewSQLB returns the adaptive-ω SQLB method.
func NewSQLB() *SQLB { return &SQLB{} }

// NewSQLBFixedOmega returns an SQLB variant with a constant ω ∈ [0,1].
func NewSQLBFixedOmega(omega float64) *SQLB {
	return &SQLB{FixedOmega: &omega}
}

// Name implements Allocator.
func (s *SQLB) Name() string {
	if s.FixedOmega != nil {
		return "SQLB(fixed-omega)"
	}
	return "SQLB"
}

// Allocate implements Allocator with the scoring/ranking/selection steps of
// Algorithm 1 (the intention collection, lines 2-5, happens in the mediator
// before this call). Only the q.n best-ranked providers are materialized
// (core.RankTop) — the full R⃗_q is never built on this hot path.
func (s *SQLB) Allocate(req *Request) []int {
	sc := req.scratch()
	omegas := sc.F1(len(req.Pq))
	for i := range omegas {
		if s.FixedOmega != nil {
			omegas[i] = *s.FixedOmega
		} else {
			sat := 0.0
			if i < len(req.ProviderSat) {
				sat = req.ProviderSat[i]
			}
			omegas[i] = core.Omega(req.ConsumerSat, sat)
		}
	}
	ranking := core.RankTop(sc, req.N(), req.PI, req.CI, omegas, core.DefaultEpsilon, req.Lazy)
	return core.Select(sc, req.N(), ranking)
}
