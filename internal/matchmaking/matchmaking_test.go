package matchmaking

import (
	"testing"

	"sqlb/internal/mediator"
	"sqlb/internal/model"
	"sqlb/internal/randx"
)

// capPop builds a population with nClasses query classes and the given
// capability selectivity (0 = homogeneous generalists).
func capPop(t *testing.T, providers, nClasses int, selectivity float64, seed uint64) *model.Population {
	t.Helper()
	cfg := model.DefaultConfig().WithClasses(nClasses)
	cfg.Consumers = 2
	cfg.Providers = providers
	cfg.CapabilitySelectivity = selectivity
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	return model.NewPopulation(cfg, randx.New(seed), 0)
}

func TestBuildIndexHomogeneous(t *testing.T) {
	pop := capPop(t, 12, 4, 0, 1)
	ix := BuildIndex(pop)
	if ix.Classes() != 4 {
		t.Fatalf("classes = %d, want 4", ix.Classes())
	}
	for c := 0; c < 4; c++ {
		pq := ix.Lookup(c)
		if len(pq) != 12 {
			t.Errorf("class %d posting = %d providers, want all 12 (homogeneous)", c, len(pq))
		}
		for i := 1; i < len(pq); i++ {
			if pq[i-1].ID >= pq[i].ID {
				t.Fatalf("class %d posting not in ascending ID order", c)
			}
		}
	}
}

// checkScan holds the index's Pq for class to the naive sound-and-complete
// procedure: a full scan for the alive providers that advertise the class,
// in ID order.
func checkScan(t *testing.T, ix *Index, pop *model.Population, class int) {
	t.Helper()
	var want []*model.Provider
	for _, p := range pop.Providers {
		if p.Alive && p.CanServe(class) {
			want = append(want, p)
		}
	}
	got := ix.Lookup(class)
	if len(got) != len(want) {
		t.Fatalf("class %d: index %d providers, scan %d", class, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("class %d: index[%d] = provider %d, scan has %d", class, i, got[i].ID, want[i].ID)
		}
	}
}

// TestIndexEquivalenceWithHandEditedCapabilities covers capability sets
// that the population builder never produces: empty sets and single-class
// specialists set before the index is built, and a set edited after it
// (Remove→edit→Add around the edit, the documented protocol).
func TestIndexEquivalenceWithHandEditedCapabilities(t *testing.T) {
	const classes = 5
	pop := capPop(t, 12, classes, 0, 4)
	pop.Providers[0].SetCapabilities(nil, classes)
	pop.Providers[1].SetCapabilities([]int{4}, classes)
	ix := BuildIndex(pop)
	for c := 0; c < classes; c++ {
		checkScan(t, ix, pop, c)
	}
	p := pop.Providers[3]
	ix.Remove(p)
	p.SetCapabilities([]int{0, 2}, classes)
	ix.Add(p)
	for c := 0; c < classes; c++ {
		checkScan(t, ix, pop, c)
	}
}

func TestIndexRemoveMaintainsPostings(t *testing.T) {
	pop := capPop(t, 10, 3, 0, 5)
	ix := BuildIndex(pop)
	p := pop.Providers[4]
	p.Alive = false
	ix.Remove(p)
	for c := 0; c < 3; c++ {
		if got := ix.PostingLen(c); got != 9 {
			t.Errorf("class %d posting len = %d after Remove, want 9", c, got)
		}
		for _, q := range ix.Lookup(c) {
			if q == p {
				t.Fatalf("removed provider still matched for class %d", c)
			}
		}
	}
	// Removing again is a no-op.
	ix.Remove(p)
	if got := ix.PostingLen(0); got != 9 {
		t.Errorf("double Remove changed posting len to %d", got)
	}
}

func TestIndexLazyPruneOnExternalDeparture(t *testing.T) {
	// A provider whose Alive flag is flipped without a Remove call (the
	// failure path) must disappear from lookups, and the posting list must
	// compact on the way.
	pop := capPop(t, 8, 2, 0, 9)
	ix := BuildIndex(pop)
	pop.Providers[0].Alive = false
	pop.Providers[7].Alive = false
	pq := ix.Lookup(1)
	if len(pq) != 6 {
		t.Fatalf("lookup after external departures = %d providers, want 6", len(pq))
	}
	for _, p := range pq {
		if !p.Alive {
			t.Fatal("dead provider matched")
		}
	}
	if got := ix.PostingLen(1); got != 6 {
		t.Errorf("posting not compacted: len %d, want 6", got)
	}
	// Class 0 was not looked up; its posting still holds the stale entries
	// until its own next lookup.
	if got := ix.PostingLen(0); got != 8 {
		t.Errorf("untouched posting len = %d, want 8 (lazy)", got)
	}
}

func TestIndexAddReRegisters(t *testing.T) {
	pop := capPop(t, 6, 2, 0, 11)
	ix := BuildIndex(pop)
	p := pop.Providers[2]
	p.Alive = false
	ix.Remove(p)
	p.Alive = true
	ix.Add(p)
	pq := ix.Lookup(0)
	if len(pq) != 6 {
		t.Fatalf("re-registered lookup = %d providers, want 6", len(pq))
	}
	for i := 1; i < len(pq); i++ {
		if pq[i-1].ID >= pq[i].ID {
			t.Fatal("re-registration broke ID order")
		}
	}
	// Double Add is a per-class no-op.
	ix.Add(p)
	if got := ix.PostingLen(0); got != 6 {
		t.Errorf("double Add inflated posting to %d", got)
	}
}

func TestEmptyPostingList(t *testing.T) {
	// A class no provider advertises: the posting list is empty and the
	// mediator turns it into ErrNoProviders (covered in sim and mediator
	// tests); here the lookup itself must return nothing for both an
	// unserved class and out-of-range classes.
	pop := capPop(t, 6, 4, 0.25, 2)
	for _, p := range pop.Providers {
		p.SetCapabilities([]int{0}, 4) // everyone serves only class 0
	}
	ix := BuildIndex(pop)
	if got := len(ix.Lookup(3)); got != 0 {
		t.Errorf("unserved class matched %d providers", got)
	}
	if ix.Lookup(-1) != nil || ix.Lookup(4) != nil {
		t.Error("out-of-range class must match nothing")
	}
	if got := len(ix.Lookup(0)); got != 6 {
		t.Errorf("served class matched %d providers, want 6", got)
	}
}

func TestIndexMatchImplementsMatchmaker(t *testing.T) {
	var _ mediator.Matchmaker = NewIndex(1)
	pop := capPop(t, 5, 2, 0, 8)
	ix := BuildIndex(pop)
	q := &model.Query{Class: 1}
	if got := len(ix.Match(q, pop)); got != 5 {
		t.Errorf("Match returned %d providers, want 5", got)
	}
}
