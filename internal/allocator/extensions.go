package allocator

import (
	"sqlb/internal/core"
)

// KnBest is the KnBest-inspired strategy of the authors' companion work
// (DASFAA 2007, the paper's ref [17], cited as complementary): first keep
// the k·n best providers by SQLB score, then pick the n least utilized
// among them. It trades a little intention satisfaction for better load
// spreading at high workloads.
type KnBest struct {
	// KFactor is k: how many candidates per requested provider survive the
	// intention round (default 3).
	KFactor int
	// Epsilon is ε of the underlying Definition 9 scoring.
	Epsilon float64
}

// NewKnBest returns the KnBest strategy with k = 3.
func NewKnBest() *KnBest { return &KnBest{KFactor: 3} }

// Name implements Allocator.
func (*KnBest) Name() string { return "KnBest" }

// Allocate implements Allocator.
func (k *KnBest) Allocate(req *Request) []int {
	factor := k.KFactor
	if factor < 1 {
		factor = 3
	}
	n := req.N()
	sc := req.scratch()
	omegas := sc.F1(len(req.Pq))
	for i := range omegas {
		sat := 0.0
		if i < len(req.ProviderSat) {
			sat = req.ProviderSat[i]
		}
		omegas[i] = core.Omega(req.ConsumerSat, sat)
	}
	// Only the k·n score survivors are materialized; the load round then
	// picks the n least loaded among them.
	kn := n * factor
	short := core.RankTop(sc, kn, req.PI, req.CI, omegas, k.Epsilon, req.Lazy)
	loads := sc.F3(len(short))
	for i, r := range short {
		loads[i] = req.Pq[r.Index].OperationalLoad(req.Now)
	}
	// RankTop is done with I1 by the time it returns, so the load
	// round may reuse it; the final set goes to I2 like every strategy.
	picked := core.SelectTopN(sc, len(short), n, func(a, b int) bool {
		if loads[a] != loads[b] {
			return loads[a] < loads[b]
		}
		return short[a].Index < short[b].Index
	})
	out := sc.I2(len(picked))
	for i, p := range picked {
		out[i] = short[p].Index
	}
	return out
}

// SQLBEconomic is the economic SQLB variant the paper sketches as future
// work (Section 7: "one can combine them to obtain an economic version of
// SQLB, by computing bids w.r.t. intentions"). Providers implicitly bid
// value v = ω·pi + (1−ω)·ci — an arithmetic (linear-utility) balance of the
// two intentions instead of Definition 9's geometric one — and the broker
// takes the highest-value bids. Comparing it against geometric SQLB is one
// of the design-choice ablations of DESIGN.md.
type SQLBEconomic struct{}

// NewSQLBEconomic returns the economic SQLB variant.
func NewSQLBEconomic() *SQLBEconomic { return &SQLBEconomic{} }

// Name implements Allocator.
func (*SQLBEconomic) Name() string { return "SQLB-econ" }

// Allocate implements Allocator.
func (*SQLBEconomic) Allocate(req *Request) []int {
	sc := req.scratch()
	req.ResolvePI()
	values := sc.F1(len(req.Pq))
	for i := range req.Pq {
		sat := 0.0
		if i < len(req.ProviderSat) {
			sat = req.ProviderSat[i]
		}
		omega := core.Omega(req.ConsumerSat, sat)
		pi, ci := 0.0, 0.0
		if i < len(req.PI) {
			pi = req.PI[i]
		}
		if i < len(req.CI) {
			ci = req.CI[i]
		}
		values[i] = omega*pi + (1-omega)*ci
	}
	return core.SelectTopN(sc, len(req.Pq), req.N(), func(a, b int) bool {
		if values[a] != values[b] {
			return values[a] > values[b]
		}
		return a < b
	})
}
