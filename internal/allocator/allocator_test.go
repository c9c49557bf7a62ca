package allocator

import (
	"strings"
	"testing"

	"sqlb/internal/model"
	"sqlb/internal/randx"
)

// testPop builds a small deterministic population for allocator tests.
func testPop(t *testing.T, providers int) *model.Population {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Consumers = 2
	cfg.Providers = providers
	pop := model.NewPopulation(cfg, randx.New(99), 0)
	return pop
}

func testRequest(pop *model.Population, n int) *Request {
	q := &model.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: n}
	np := len(pop.Providers)
	req := &Request{
		Query:       q,
		Pq:          pop.Providers,
		CI:          make([]float64, np),
		PI:          make([]float64, np),
		ConsumerSat: 0.5,
		ProviderSat: make([]float64, np),
		Now:         10,
	}
	for i := range req.ProviderSat {
		req.ProviderSat[i] = 0.5
	}
	return req
}

func TestRequestN(t *testing.T) {
	pop := testPop(t, 4)
	if got := testRequest(pop, 2).N(); got != 2 {
		t.Errorf("N = %d, want 2", got)
	}
	if got := testRequest(pop, 9).N(); got != 4 {
		t.Errorf("N capped = %d, want 4 (|Pq|)", got)
	}
	if got := testRequest(pop, 0).N(); got != 1 {
		t.Errorf("N floor = %d, want 1", got)
	}
	empty := &Request{Query: &model.Query{N: 3}}
	if got := empty.N(); got != 0 {
		t.Errorf("N over empty Pq = %d, want 0", got)
	}
}

func TestSQLBPrefersMutualIntention(t *testing.T) {
	pop := testPop(t, 3)
	req := testRequest(pop, 1)
	req.PI = []float64{0.9, -0.5, 0.9}
	req.CI = []float64{-0.5, 0.9, 0.9}
	got := NewSQLB().Allocate(req)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("SQLB selected %v, want [2] (the mutually-wanted provider)", got)
	}
}

func TestSQLBAdaptiveOmegaFavorsLessSatisfiedSide(t *testing.T) {
	pop := testPop(t, 2)
	req := testRequest(pop, 1)
	// Provider 0: provider loves it, consumer mildly dislikes.
	// Provider 1: consumer loves it, provider mildly dislikes.
	req.PI = []float64{0.9, 0.3}
	req.CI = []float64{0.3, 0.9}
	// Dissatisfied providers, happy consumer → ω near 1 → provider
	// intentions dominate → provider 0 wins.
	req.ConsumerSat = 1
	req.ProviderSat = []float64{0, 0}
	if got := NewSQLB().Allocate(req); got[0] != 0 {
		t.Errorf("ω→1 should favor provider intentions, selected %v", got)
	}
	// Satisfied providers, miserable consumer → ω near 0 → consumer
	// intentions dominate → provider 1 wins.
	req.ConsumerSat = 0
	req.ProviderSat = []float64{1, 1}
	if got := NewSQLB().Allocate(req); got[0] != 1 {
		t.Errorf("ω→0 should favor consumer intentions, selected %v", got)
	}
}

func TestSQLBFixedOmega(t *testing.T) {
	pop := testPop(t, 2)
	req := testRequest(pop, 1)
	req.PI = []float64{0.9, 0.3}
	req.CI = []float64{0.3, 0.9}
	// ω = 0: only the consumer's view counts (the cooperative-provider
	// setting from Section 5.3).
	if got := NewSQLBFixedOmega(0).Allocate(req); got[0] != 1 {
		t.Errorf("fixed ω=0 should select the consumer favorite, got %v", got)
	}
	if got := NewSQLBFixedOmega(1).Allocate(req); got[0] != 0 {
		t.Errorf("fixed ω=1 should select the provider favorite, got %v", got)
	}
	if name := NewSQLBFixedOmega(0).Name(); name != "SQLB(fixed-omega)" {
		t.Errorf("unexpected name %q", name)
	}
}

func TestSQLBSelectsRequestedCount(t *testing.T) {
	pop := testPop(t, 5)
	req := testRequest(pop, 3)
	req.PI = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	req.CI = []float64{0.5, 0.4, 0.3, 0.2, 0.1}
	got := NewSQLB().Allocate(req)
	if len(got) != 3 {
		t.Fatalf("selected %d providers, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, idx := range got {
		if idx < 0 || idx >= 5 || seen[idx] {
			t.Fatalf("invalid selection %v", got)
		}
		seen[idx] = true
	}
}

func TestCapacityBasedPicksLeastUtilized(t *testing.T) {
	pop := testPop(t, 3)
	// Load providers 0 and 1; leave 2 idle.
	pop.Providers[0].Assign(0, 500)
	pop.Providers[1].Assign(0, 200)
	req := testRequest(pop, 1)
	got := NewCapacityBased().Allocate(req)
	if got[0] != 2 {
		t.Errorf("capacity-based selected %v, want idle provider 2", got)
	}
	if NewCapacityBased().Name() != "Capacity based" {
		t.Error("unexpected name")
	}
}

func TestCapacityBasedTieBreaksOnCapacity(t *testing.T) {
	pop := testPop(t, 6)
	req := testRequest(pop, 1)
	// All idle (Ut = 0): the biggest capacity must win.
	got := NewCapacityBased().Allocate(req)
	best := pop.Providers[got[0]]
	for _, p := range pop.Providers {
		if p.Capacity > best.Capacity {
			t.Fatalf("selected capacity %v but %v exists", best.Capacity, p.Capacity)
		}
	}
}

func TestMariposaBidShape(t *testing.T) {
	m := NewMariposaLike()
	if bid := m.Bid(1); bid != 0.1 {
		t.Errorf("bid at pref 1 = %v, want 0.1", bid)
	}
	if bid := m.Bid(-1); bid != 1.1 {
		t.Errorf("bid at pref -1 = %v, want 1.1", bid)
	}
	if m.Bid(0.5) >= m.Bid(-0.5) {
		t.Error("more-adapted providers must bid cheaper")
	}
}

func TestMariposaConcentratesOnAdaptedProviders(t *testing.T) {
	pop := testPop(t, 3)
	// Same idle load everywhere; provider 1 loves the query class.
	pop.Providers[0].SetPreference(0, -0.5)
	pop.Providers[1].SetPreference(0, 0.9)
	pop.Providers[2].SetPreference(0, 0.1)
	req := testRequest(pop, 1)
	got := NewMariposaLike().Allocate(req)
	if got[0] != 1 {
		t.Errorf("Mariposa-like selected %v, want the adapted provider 1", got)
	}
}

func TestMariposaLoadEventuallyRepels(t *testing.T) {
	pop := testPop(t, 2)
	pop.Providers[0].SetPreference(0, 0.9)  // adapted but will be drowned
	pop.Providers[1].SetPreference(0, -0.2) // unattractive but idle
	// Overload provider 0 far past the price advantage (price ratio is
	// ~0.15/0.7 ≈ 0.2, so load ratio must exceed ~5×).
	for i := 0; i < 50; i++ {
		pop.Providers[0].Assign(float64(i)/10, 300)
	}
	req := testRequest(pop, 1)
	req.Now = 5
	got := NewMariposaLike().Allocate(req)
	if got[0] != 1 {
		t.Errorf("Mariposa-like ignored crushing load: selected %v", got)
	}
}

func TestRandomAllocatorValidAndDeterministic(t *testing.T) {
	pop := testPop(t, 5)
	a := NewRandom(7)
	b := NewRandom(7)
	reqA := testRequest(pop, 2)
	reqB := testRequest(pop, 2)
	for i := 0; i < 10; i++ {
		ga := a.Allocate(reqA)
		gb := b.Allocate(reqB)
		if len(ga) != 2 || len(gb) != 2 {
			t.Fatalf("selection sizes %d/%d, want 2", len(ga), len(gb))
		}
		if ga[0] != gb[0] || ga[1] != gb[1] {
			t.Fatal("same-seeded Random allocators diverged")
		}
		if ga[0] == ga[1] {
			t.Fatal("Random selected the same provider twice")
		}
	}
	if NewRandom(1).Name() != "Random" {
		t.Error("unexpected name")
	}
}

func TestSQLBEconomicPrefersHighLinearValue(t *testing.T) {
	pop := testPop(t, 3)
	req := testRequest(pop, 1)
	req.PI = []float64{0.8, 0.2, -0.9}
	req.CI = []float64{0.7, 0.3, 1}
	got := NewSQLBEconomic().Allocate(req)
	if got[0] != 0 {
		t.Errorf("SQLB-econ selected %v, want 0 (highest ω·pi+(1-ω)·ci)", got)
	}
	if NewSQLBEconomic().Name() != "SQLB-econ" {
		t.Error("unexpected name")
	}
}

func TestAllAllocatorsReturnExactlyN(t *testing.T) {
	pop := testPop(t, 7)
	if _, err := Methods.New("sqlb-fixed", 3); err == nil || !strings.Contains(err.Error(), Methods.Names()) {
		t.Errorf("an unknown method: error %v, want one naming the table's methods", err)
	}
	for _, m := range Methods {
		a, err := Methods.New(m.name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 8; n++ {
			req := testRequest(pop, n)
			req.PI = make([]float64, 7)
			req.CI = make([]float64, 7)
			got := a.Allocate(req)
			want := n
			if want > 7 {
				want = 7
			}
			if len(got) != want {
				t.Errorf("%s: selected %d for q.n=%d, want %d", a.Name(), len(got), n, want)
			}
			seen := map[int]bool{}
			for _, idx := range got {
				if idx < 0 || idx >= 7 || seen[idx] {
					t.Errorf("%s: invalid selection %v", a.Name(), got)
					break
				}
				seen[idx] = true
			}
		}
	}
}
