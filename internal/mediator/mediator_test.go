package mediator

import (
	"errors"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/randx"
)

func newPop(t *testing.T, consumers, providers int) *model.Population {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Consumers = consumers
	cfg.Providers = providers
	return model.NewPopulation(cfg, randx.New(21), 0)
}

// matchFunc is a predicate matchmaker: the alive providers it accepts.
type matchFunc func(p *model.Provider, class int) bool

func (f matchFunc) Match(q *model.Query, pop *model.Population) (pq []*model.Provider) {
	for _, p := range pop.Providers {
		if p.Alive && f(p, q.Class) {
			pq = append(pq, p)
		}
	}
	return pq
}

func newQuery(pop *model.Population, id uint64, n int) *model.Query {
	return &model.Query{
		ID:       id,
		Consumer: pop.Consumers[0],
		Class:    0,
		Units:    130,
		N:        n,
		IssuedAt: 0,
	}
}

func TestMediatorAllocateHappyPath(t *testing.T) {
	pop := newPop(t, 2, 8)
	med := New(allocator.NewSQLB())
	q := newQuery(pop, 1, 1)
	alloc, err := med.Allocate(0, q, pop)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(alloc.Pq) != 8 {
		t.Errorf("Pq size = %d, want all 8 alive providers", len(alloc.Pq))
	}
	if len(alloc.Selected) != 1 {
		t.Fatalf("selected %d providers, want 1", len(alloc.Selected))
	}
	if len(alloc.CI) != 8 || len(alloc.PI) != 8 {
		t.Errorf("intention vectors sized %d/%d, want 8/8", len(alloc.CI), len(alloc.PI))
	}
	sel := alloc.SelectedProviders()
	if len(sel) != 1 || sel[0] != alloc.Pq[alloc.Selected[0]] {
		t.Error("SelectedProviders does not match Selected indexes")
	}
}

func TestMediatorSkipsDepartedProviders(t *testing.T) {
	pop := newPop(t, 1, 4)
	pop.Providers[0].Alive = false
	pop.Providers[1].Alive = false
	med := New(allocator.NewCapacityBased())
	alloc, err := med.Allocate(0, newQuery(pop, 1, 1), pop)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(alloc.Pq) != 2 {
		t.Errorf("Pq size = %d, want 2 alive", len(alloc.Pq))
	}
	for _, p := range alloc.Pq {
		if !p.Alive {
			t.Error("departed provider matched")
		}
	}
}

func TestMediatorNoProviders(t *testing.T) {
	pop := newPop(t, 1, 2)
	for _, p := range pop.Providers {
		p.Alive = false
	}
	med := New(allocator.NewSQLB())
	if _, err := med.Allocate(0, newQuery(pop, 1, 1), pop); err == nil {
		t.Fatal("expected ErrNoProviders")
	}
}

func TestMediatorNoProvidersIsErrNoProviders(t *testing.T) {
	// The wrapped error must stay matchable with errors.Is — the contract
	// the engine's drop accounting relies on.
	pop := newPop(t, 1, 2)
	med := New(allocator.NewSQLB())
	med.Match = matchFunc(func(*model.Provider, int) bool { return false })
	_, err := med.Allocate(0, newQuery(pop, 1, 1), pop)
	if !errors.Is(err, ErrNoProviders) {
		t.Fatalf("err = %v, want ErrNoProviders (empty posting list)", err)
	}
}

func TestMediatorNoStrategy(t *testing.T) {
	pop := newPop(t, 1, 2)
	med := &Mediator{}
	if _, err := med.Allocate(0, newQuery(pop, 1, 1), pop); err == nil {
		t.Fatal("expected configuration error")
	}
}

func TestMediatorMatchmaker(t *testing.T) {
	pop := newPop(t, 1, 6)
	med := &Mediator{
		Strategy: allocator.NewSQLB(),
		Match: matchFunc(func(p *model.Provider, class int) bool {
			return p.ID%2 == 0 // only even providers serve class 0
		}),
	}
	alloc, err := med.Allocate(0, newQuery(pop, 1, 1), pop)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(alloc.Pq) != 3 {
		t.Errorf("Pq size = %d, want 3", len(alloc.Pq))
	}
	for _, p := range alloc.Pq {
		if p.ID%2 != 0 {
			t.Errorf("provider %d should not have matched", p.ID)
		}
	}
	// No matchmaker matches everyone.
	med.Match = nil
	alloc, err = med.Allocate(0, newQuery(pop, 2, 1), pop)
	if err != nil || len(alloc.Pq) != 6 {
		t.Errorf("nil matchmaker matched %d, want 6 (err %v)", len(alloc.Pq), err)
	}
}

func TestMediatorQNGreaterThanN(t *testing.T) {
	pop := newPop(t, 1, 3)
	med := New(allocator.NewSQLB())
	alloc, err := med.Allocate(0, newQuery(pop, 1, 10), pop)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(alloc.Selected) != 3 {
		t.Errorf("selected %d, want all 3 (q.n > N)", len(alloc.Selected))
	}
}

func TestIntentionsVectorSemantics(t *testing.T) {
	pop := newPop(t, 1, 10)
	q := newQuery(pop, 1, 1)
	alloc, err := New(allocator.NewSQLB()).Allocate(0, q, pop)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	ci, pi := alloc.CI, alloc.PI
	if len(ci) != 10 || len(pi) != 10 {
		t.Fatalf("vector sizes %d/%d, want 10/10", len(ci), len(pi))
	}
	// Intentions are the raw Def 7/8 values: positive ones stay within
	// (0,1]; negative ones may extend below -1 (with ε = 1 the magnitude
	// is bounded by 3), which Definition 9's negative branch relies on.
	for i := range ci {
		for _, v := range [2]float64{ci[i], pi[i]} {
			if v != v || v > 1 || v < -3.0001 {
				t.Fatalf("intention out of raw range at %d: ci=%v pi=%v", i, ci[i], pi[i])
			}
		}
	}
	// υ = 1 in the default config: consumer intentions equal preferences
	// whenever they are positive (Definition 7 positive branch).
	c := pop.Consumers[0]
	for i, p := range pop.Providers {
		pref := c.Preference(p, 0)
		if pref > 0 && p.Reputation > 0 && ci[i] != pref {
			t.Fatalf("υ=1 intention %v != preference %v", ci[i], pref)
		}
	}
}

func TestMediatorDeterministic(t *testing.T) {
	runOnce := func() []int {
		pop := newPop(t, 2, 12)
		med := New(allocator.NewSQLB())
		var picks []int
		for i := 0; i < 20; i++ {
			q := newQuery(pop, uint64(i), 1)
			alloc, err := med.Allocate(float64(i), q, pop)
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			picks = append(picks, alloc.Selected[0])
			// Apply the allocation so state evolves.
			for _, p := range alloc.SelectedProviders() {
				p.Assign(float64(i), q.Units)
			}
		}
		return picks
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allocation diverged at query %d: %d vs %d", i, a[i], b[i])
		}
	}
}
