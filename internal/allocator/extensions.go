package allocator

import (
	"sqlb/internal/core"
)

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
		omega := core.Omega(req.ConsumerSat, req.ProviderSatisfaction(i))
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
