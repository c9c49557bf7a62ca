package allocator

import (
	"sqlb/internal/core"
	"sqlb/internal/randx"
)

// CapacityBased is the classic query-load-balancing baseline (Section
// 6.2.1, refs [13,18,21]): each query goes to the providers with the
// highest available capacity, i.e. the least utilized, with no regard for
// anyone's intentions. Ties break on the larger capacity (more headroom)
// and then on the provider ID, keeping allocations deterministic.
type CapacityBased struct{}

// NewCapacityBased returns the Capacity-based baseline.
func NewCapacityBased() *CapacityBased { return &CapacityBased{} }

// Name implements Allocator.
func (*CapacityBased) Name() string { return "Capacity based" }

// Allocate implements Allocator.
func (*CapacityBased) Allocate(req *Request) []int {
	sc := req.scratch()
	utils := sc.F1(len(req.Pq))
	for i, p := range req.Pq {
		utils[i] = p.Utilization(req.Now)
	}
	return core.SelectTopN(sc, len(req.Pq), req.N(), func(a, b int) bool {
		if utils[a] != utils[b] {
			return utils[a] < utils[b]
		}
		if req.Pq[a].Capacity != req.Pq[b].Capacity {
			return req.Pq[a].Capacity > req.Pq[b].Capacity
		}
		return a < b
	})
}

// MariposaLike is the economic baseline of Section 6.2.2, modelled on
// Mariposa [22]: a broker requests bids, each provider bids a price that
// reflects how much it wants the query (more-adapted providers bid
// cheaper), the bid is adjusted by the provider's current load ("bid ×
// load" — Mariposa's crude form of load balancing), and the broker takes
// the cheapest adjusted bids. The load factor is floored so an idle
// provider's bid stays comparable rather than collapsing to zero, and the
// backlog only registers over a long horizon — the crudeness the paper
// observes: queries concentrate on the most-adapted providers until their
// queues are already severe, which is what overutilizes them (Table 3).
type MariposaLike struct {
	// MinLoadFactor floors the load multiplier (default 0.5). Keeping the
	// floor high makes the balancing crude: an idle provider's bid is
	// discounted at most 2×, so a cheap (well-adapted) provider keeps
	// winning until its overload outweighs its price advantage — the
	// concentration that overutilizes adapted providers in Table 3. A low
	// floor would instead turn the scheme into an aggressive balancer.
	MinLoadFactor float64
	// LoadHorizon is the backlog horizon (seconds) after which a queue
	// inflates the bid as strongly as rate saturation does (default 60 —
	// sluggish on purpose; compare model.Config.LoadHorizon, which is 3:
	// Mariposa providers only repel queries once their queue is a minute
	// deep, so the adapted ones run far past capacity for long stretches).
	LoadHorizon float64
}

// NewMariposaLike returns the Mariposa-like baseline with defaults.
func NewMariposaLike() *MariposaLike { return &MariposaLike{MinLoadFactor: 0.5, LoadHorizon: 60} }

// Name implements Allocator.
func (*MariposaLike) Name() string { return "Mariposa-like" }

// Bid returns the provider's raw price for the query: linear in how little
// it wants the query, kept strictly positive. Preference 1 bids 0.1,
// preference -1 bids 1.1.
func (m *MariposaLike) Bid(pref float64) float64 {
	return (1-pref)/2 + 0.1
}

// Allocate implements Allocator.
func (m *MariposaLike) Allocate(req *Request) []int {
	minLoad := m.MinLoadFactor
	if minLoad <= 0 {
		minLoad = 0.5
	}
	horizon := m.LoadHorizon
	if horizon <= 0 {
		horizon = 60
	}
	sc := req.scratch()
	bids := sc.F1(len(req.Pq))
	for i, p := range req.Pq {
		pref := p.Preference(req.Query.Class)
		load := p.Utilization(req.Now)
		if b := p.Backlog(req.Now) / horizon; b > load {
			load = b
		}
		if load < minLoad {
			load = minLoad
		}
		bids[i] = m.Bid(pref) * load
	}
	return core.SelectTopN(sc, len(req.Pq), req.N(), func(a, b int) bool {
		if bids[a] != bids[b] {
			return bids[a] < bids[b]
		}
		return a < b
	})
}

// Random allocates uniformly at random; a control strategy for tests and
// ablations, not part of the paper's comparison.
type Random struct {
	rng *randx.Rand
}

// NewRandom returns a Random allocator seeded deterministically.
func NewRandom(seed uint64) *Random { return &Random{rng: randx.New(seed)} }

// Name implements Allocator.
func (*Random) Name() string { return "Random" }

// Allocate implements Allocator.
func (r *Random) Allocate(req *Request) []int {
	n := req.N()
	perm := r.rng.Perm(len(req.Pq))
	return perm[:n]
}
