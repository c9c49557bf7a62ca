// Package allocator defines the query-allocation strategy interface of the
// mediator and implements the methods compared in the paper's evaluation
// (Section 6.2): SQLB itself, the Capacity-based baseline (allocate to the
// least-utilized providers), and the Mariposa-like economic baseline
// (bid × load broker). It also provides a Random control used in tests and
// an extension the paper flags as future work: an economic SQLB variant
// whose bids are computed from intentions (Section 7).
package allocator

import (
	"fmt"
	"strings"

	"sqlb/internal/core"
	"sqlb/internal/model"
)

// Request carries everything a strategy may consult for one allocation:
// the query, the matchmade provider set Pq, the expressed intentions, and
// the mediator-observed (intention-based) satisfactions that Equation 6
// uses. Strategies that ignore intentions (Capacity-based) simply do not
// read those fields.
type Request struct {
	// Query is the query to allocate. Like the rest of the request it is
	// valid for the call only: the simulator mints every arrival into the
	// same Query.
	Query *model.Query
	// Pq is the set of providers able to treat the query.
	Pq []*model.Provider
	// CI[i] is the consumer's intention for allocating the query to Pq[i]:
	// Definition 7's raw value, which extends below -1.
	CI []float64
	// PI[i] is Pq[i]'s intention for performing the query: Definition 8's
	// raw value, or, while Lazy still defers it, an upper bound ≤ -1 of it
	// (mediator.Allocation states the contract). A strategy resolves PI[i]
	// before it reads it; core.RankTop, given PI and Lazy, does.
	PI []float64
	// Lazy resolves deferred entries of PI; nil when all are exact, as in
	// a hand-built request.
	Lazy core.Resolver
	// ConsumerSat is the mediator-observed, intention-based δs(q.c).
	ConsumerSat float64
	// ProviderSat[i] is the mediator-observed, intention-based δs(Pq[i]),
	// as a hand-built request may give it. The mediator leaves it nil, so
	// a strategy reads δs(Pq[i]) through ProviderSatisfaction, which falls
	// back on Pq[i]'s public window; indexing a nil ProviderSat panics.
	ProviderSat []float64
	// Now is the current simulation time (drives utilization reads).
	Now float64
	// Scratch lends the strategy reusable buffers for its intermediate
	// vectors so steady-state allocation is zero (the mediator wires its
	// own scratch through every request). Strategies must treat it per the
	// core.Scratch buffer contract; the selected set they return may be
	// carved from it and is then valid only until the next allocation on
	// the same mediator. A caller building a Request by hand may leave it
	// nil: the first allocation fills it in, and results are then valid
	// until the next allocation on the same Request.
	Scratch *core.Scratch
}

// scratch returns the request's buffer set, supplying one for a hand-built
// request that carries none.
func (r *Request) scratch() *core.Scratch {
	if r.Scratch == nil {
		r.Scratch = new(core.Scratch)
	}
	return r.Scratch
}

// ProviderSatisfaction returns δs(Pq[i]) as the mediator observes it:
// ProviderSat[i], or Pq[i]'s public window when ProviderSat is nil; 0 past
// either.
func (r *Request) ProviderSatisfaction(i int) float64 {
	if r.ProviderSat != nil {
		if i < len(r.ProviderSat) {
			return r.ProviderSat[i]
		}
		return 0
	}
	if i < len(r.Pq) && r.Pq[i] != nil && r.Pq[i].Public != nil {
		return r.Pq[i].Public.Satisfaction()
	}
	return 0
}

// ResolvePI makes every entry of PI exact, for a strategy that reads all.
func (r *Request) ResolvePI() {
	if r.Lazy == nil {
		return
	}
	for i := range r.PI {
		r.Lazy.Resolve(i)
	}
}

// N returns min(q.n, |Pq|), the number of providers to select.
func (r *Request) N() int {
	n := 1
	if r.Query != nil && r.Query.N > 0 {
		n = r.Query.N
	}
	if n > len(r.Pq) {
		n = len(r.Pq)
	}
	return n
}

// Allocator is a query-allocation strategy: given a request it returns the
// indexes (into Pq) of the providers that get the query, best first. An
// implementation must return min(q.n, |Pq|) distinct indexes whenever Pq is
// non-empty (queries are treated if at all possible, Section 2).
type Allocator interface {
	// Name identifies the method in reports ("SQLB", "Capacity based", …).
	Name() string
	// Allocate selects the providers for the request.
	Allocate(req *Request) []int
}

// Methods is the name → constructor table of the strategies sqlb-sim and
// sqlb-serve select with -method, in the order their help lists them. The
// seed seeds Random; the other strategies ignore it.
var Methods = methodTable{
	{"sqlb", func(uint64) Allocator { return NewSQLB() }},
	{"capacity", func(uint64) Allocator { return NewCapacityBased() }},
	{"mariposa", func(uint64) Allocator { return NewMariposaLike() }},
	{"random", func(seed uint64) Allocator { return NewRandom(seed) }},
	{"sqlb-econ", func(uint64) Allocator { return NewSQLBEconomic() }},
}

type methodTable []struct {
	name  string
	build func(seed uint64) Allocator
}

// Names lists the table's method names, comma-separated.
func (t methodTable) Names() string {
	names := make([]string, len(t))
	for i, m := range t {
		names[i] = m.name
	}
	return strings.Join(names, ", ")
}

// New builds the strategy called name; an unknown name is an error that
// lists the table's names.
func (t methodTable) New(name string, seed uint64) (Allocator, error) {
	for _, m := range t {
		if m.name == name {
			return m.build(seed), nil
		}
	}
	return nil, fmt.Errorf("unknown method %q (want one of %s)", name, t.Names())
}
