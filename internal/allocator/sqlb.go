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
// before this call). Only the q.n best-ranked providers are materialized,
// and where Definition 9's sign split decides the ranking only the
// candidates with pi > 0 ∧ ci > 0 are scored (core.RankSplit): ω and the
// provider's satisfaction are read for no other.
func (s *SQLB) Allocate(req *Request) []int {
	total := min(len(req.PI), len(req.CI), len(req.Pq))
	return s.allocate(req, core.SplitOf(req.scratch(), req.PI[:total], req.CI[:total]))
}

// AllocateSplit returns a.Allocate(req), except that where a is SQLB itself
// it hands over split, Definition 9's sign split of req's PI and CI as the
// caller gathered them, in place of SQLB's own pass over the request. A
// strategy that wraps SQLB gets no split, since it may change the request
// before SQLB sees it.
func AllocateSplit(a Allocator, req *Request, split core.Split) []int {
	if s, ok := a.(*SQLB); ok {
		return s.allocate(req, split)
	}
	return a.Allocate(req)
}

func (s *SQLB) allocate(req *Request, split core.Split) []int {
	sc := req.scratch()
	total := min(len(req.PI), len(req.CI), len(req.Pq))
	omega := func(i int) float64 {
		if s.FixedOmega != nil {
			return *s.FixedOmega
		}
		return core.Omega(req.ConsumerSat, req.ProviderSatisfaction(i))
	}
	ranking := core.RankSplit(sc, req.N(), req.PI[:total], req.CI[:total], split, omega, core.DefaultEpsilon, req.Lazy)
	return core.Select(sc, req.N(), ranking)
}
