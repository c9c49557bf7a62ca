package allocator

import (
	"math"
	"sort"
	"testing"

	"sqlb/internal/core"
	"sqlb/internal/model"
	"sqlb/internal/randx"
)

// Property tests: every allocator's partial top-n selection must agree
// exactly with a naive reference oracle that fully stable-sorts the same
// keys, across randomized Pq sizes, scores (quantized to force ties),
// loads, and the boundary counts q.n ∈ {0, 1, |Pq|, |Pq|+5}.

// randomRequest builds a population of the given size with randomized
// intentions, satisfactions, and provider loads. Intentions are quantized
// so that score ties actually occur.
func randomRequest(t *testing.T, rng *randx.Rand, providers, n int) *Request {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Consumers = 2
	cfg.Providers = providers
	pop := model.NewPopulation(cfg, randx.New(rng.Uint64()), 0)
	q := &model.Query{ID: 1, Consumer: pop.Consumers[0], Class: rng.Pick(len(pop.Classes)), Units: 130, N: n}
	np := len(pop.Providers)
	req := &Request{
		Query:       q,
		Pq:          pop.Providers,
		CI:          make([]float64, np),
		PI:          make([]float64, np),
		ConsumerSat: math.Round(rng.Float64()*4) / 4,
		ProviderSat: make([]float64, np),
		Now:         rng.Uniform(0, 50),
	}
	for i, p := range pop.Providers {
		req.CI[i] = math.Round(rng.Uniform(-1, 1)*4) / 4
		req.PI[i] = math.Round(rng.Uniform(-1, 1)*4) / 4
		req.ProviderSat[i] = math.Round(rng.Float64()*4) / 4
		if rng.Bool(0.5) {
			p.Assign(rng.Uniform(0, req.Now), rng.Uniform(50, 500))
		}
	}
	return req
}

// oracleOrder fully stable-sorts provider indexes under less — the
// pre-partial-selection reference behaviour.
func oracleOrder(total int, less func(a, b int) bool) []int {
	idx := make([]int, total)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
	return idx
}

func sqlbOmegas(req *Request, fixed *float64) []float64 {
	om := make([]float64, len(req.Pq))
	for i := range om {
		if fixed != nil {
			om[i] = *fixed
		} else {
			om[i] = core.Omega(req.ConsumerSat, req.ProviderSat[i])
		}
	}
	return om
}

// oracleScoreOrder is the literal ranking R⃗_q: every provider scored by
// Definition 9, all of them sorted by descending score, NaN below every
// number, lower index first among equals.
func oracleScoreOrder(req *Request, om []float64) []int {
	scores := make([]float64, len(req.Pq))
	for i := range scores {
		scores[i] = core.Score(req.PI[i], req.CI[i], om[i], core.DefaultEpsilon)
	}
	return oracleOrder(len(req.Pq), func(a, b int) bool {
		switch na, nb := math.IsNaN(scores[a]), math.IsNaN(scores[b]); {
		case na || nb:
			if na != nb {
				return nb
			}
		case scores[a] != scores[b]:
			return scores[a] > scores[b]
		}
		return a < b
	})
}

// oracleSQLB re-implements SQLB.Allocate with a full stable sort over
// Definition 9 scores.
func oracleSQLB(req *Request, fixed *float64) []int {
	return oracleScoreOrder(req, sqlbOmegas(req, fixed))[:req.N()]
}

// oracleCapacity re-implements CapacityBased.Allocate with a full sort.
func oracleCapacity(req *Request) []int {
	order := oracleOrder(len(req.Pq), func(a, b int) bool {
		ua, ub := req.Pq[a].Utilization(req.Now), req.Pq[b].Utilization(req.Now)
		if ua != ub {
			return ua < ub
		}
		if req.Pq[a].Capacity != req.Pq[b].Capacity {
			return req.Pq[a].Capacity > req.Pq[b].Capacity
		}
		return a < b
	})
	return order[:req.N()]
}

// oracleMariposa re-implements MariposaLike.Allocate with a full sort.
func oracleMariposa(req *Request, m *MariposaLike) []int {
	bids := make([]float64, len(req.Pq))
	for i, p := range req.Pq {
		load := p.Utilization(req.Now)
		if b := p.Backlog(req.Now) / 60; b > load {
			load = b
		}
		if load < 0.5 {
			load = 0.5
		}
		bids[i] = m.Bid(p.Preference(req.Query.Class)) * load
	}
	order := oracleOrder(len(req.Pq), func(a, b int) bool {
		if bids[a] != bids[b] {
			return bids[a] < bids[b]
		}
		return a < b
	})
	return order[:req.N()]
}

// oracleEconomic re-implements SQLBEconomic.Allocate with a full sort.
func oracleEconomic(req *Request) []int {
	values := make([]float64, len(req.Pq))
	for i := range req.Pq {
		om := core.Omega(req.ConsumerSat, req.ProviderSat[i])
		values[i] = om*req.PI[i] + (1-om)*req.CI[i]
	}
	order := oracleOrder(len(req.Pq), func(a, b int) bool {
		if values[a] != values[b] {
			return values[a] > values[b]
		}
		return a < b
	})
	return order[:req.N()]
}

func checkAgainstOracle(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: selected %v, oracle %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: selected %v, oracle %v", name, got, want)
		}
	}
}

func TestAllocatorsAgreeWithFullSortOracle(t *testing.T) {
	rng := randx.New(31)
	for trial := 0; trial < 60; trial++ {
		providers := 1 + rng.Pick(40)
		for _, qn := range []int{0, 1, providers, providers + 5} {
			req := randomRequest(t, rng, providers, qn)
			fixed := 0.25
			checkAgainstOracle(t, "SQLB",
				NewSQLB().Allocate(req), oracleSQLB(req, nil))
			checkAgainstOracle(t, "SQLB(fixed-omega)",
				NewSQLBFixedOmega(fixed).Allocate(req), oracleSQLB(req, &fixed))
			checkAgainstOracle(t, "Capacity based",
				NewCapacityBased().Allocate(req), oracleCapacity(req))
			checkAgainstOracle(t, "Mariposa-like",
				NewMariposaLike().Allocate(req), oracleMariposa(req, NewMariposaLike()))
			checkAgainstOracle(t, "SQLB-econ",
				NewSQLBEconomic().Allocate(req), oracleEconomic(req))
		}
	}
}

// TestScoreStrategiesUnderHostileIntentions: NaN, ±Inf and out-of-range
// intentions (pi > 1 puts a negative base under Definition 9's fractional
// power, which is NaN) must leave SQLB on the literal ranking —
// NaN scores last, then lower index — at Pq widths where the pruned scan is
// active and at every place in Pq the hostile entries can take.
func TestScoreStrategiesUnderHostileIntentions(t *testing.T) {
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.5, 2, 2.5, 7, -7, 1e300, -1e300}
	rng := randx.New(37)
	for trial := 0; trial < 60; trial++ {
		providers := 2 + rng.Pick(120)
		for _, qn := range []int{1, 2, 5, providers - 1, providers} {
			req := randomRequest(t, rng, providers, qn)
			for i := range req.Pq {
				if rng.Bool(0.3) {
					req.PI[i] = hostile[rng.Pick(len(hostile))]
				}
				if rng.Bool(0.3) {
					req.CI[i] = hostile[rng.Pick(len(hostile))]
				}
				if rng.Bool(0.1) {
					req.ProviderSat[i] = hostile[rng.Pick(len(hostile))]
				}
			}
			checkAgainstOracle(t, "SQLB", NewSQLB().Allocate(req), oracleSQLB(req, nil))
		}
	}
}

// TestAllocatorPermutationInvariance: reordering Pq (and the parallel
// intention/satisfaction slices) must select the same providers — up to
// the documented lower-index tiebreak, which the all-distinct keys of this
// fixture never exercise — regardless of their positions.
func TestAllocatorPermutationInvariance(t *testing.T) {
	rng := randx.New(33)
	for trial := 0; trial < 40; trial++ {
		providers := 2 + rng.Pick(30)
		qn := 1 + rng.Pick(providers)
		req := randomRequest(t, rng, providers, qn)
		// Distinct continuous draws so no tiebreaks fire — including the
		// provider-side keys (class preference feeding Mariposa bids, fresh
		// load feeding utilization), which the population otherwise draws
		// from discrete bands that tie.
		for i, p := range req.Pq {
			req.CI[i] = rng.Uniform(-1, 1)
			req.PI[i] = rng.Uniform(-1, 1)
			req.ProviderSat[i] = rng.Float64()
			p.SetPreference(req.Query.Class, rng.Uniform(-1, 1))
			p.Assign(req.Now-1, rng.Uniform(50, 500))
		}

		perm := rng.Perm(providers)
		permuted := &Request{
			Query:       req.Query,
			Pq:          make([]*model.Provider, providers),
			CI:          make([]float64, providers),
			PI:          make([]float64, providers),
			ConsumerSat: req.ConsumerSat,
			ProviderSat: make([]float64, providers),
			Now:         req.Now,
		}
		for i, p := range perm {
			permuted.Pq[i] = req.Pq[p]
			permuted.CI[i] = req.CI[p]
			permuted.PI[i] = req.PI[p]
			permuted.ProviderSat[i] = req.ProviderSat[p]
		}

		for _, a := range []Allocator{
			NewSQLB(), NewCapacityBased(), NewMariposaLike(), NewSQLBEconomic(),
		} {
			base := a.Allocate(req)
			moved := a.Allocate(permuted)
			baseIDs := make([]int, len(base))
			for i, idx := range base {
				baseIDs[i] = req.Pq[idx].ID
			}
			movedIDs := make([]int, len(moved))
			for i, idx := range moved {
				movedIDs[i] = permuted.Pq[idx].ID
			}
			sort.Ints(baseIDs)
			sort.Ints(movedIDs)
			checkAgainstOracle(t, a.Name()+" permutation", movedIDs, baseIDs)
		}
	}
}
