package model

import (
	"math"
	"testing"

	"sqlb/internal/randx"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.Consumers != 200 || cfg.Providers != 400 {
		t.Errorf("population = %d/%d, want 200/400 (Table 2)", cfg.Consumers, cfg.Providers)
	}
	if cfg.ConsumerK != 200 || cfg.ProviderK != 500 {
		t.Errorf("windows = %d/%d, want 200/500 (Table 2)", cfg.ConsumerK, cfg.ProviderK)
	}
	if cfg.InitialSatisfaction != 0.5 {
		t.Errorf("initial satisfaction = %v, want 0.5", cfg.InitialSatisfaction)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.Consumers = 0
	bad.QueryN = 0
	bad.Epsilon = 0
	bad.InterestShares = [3]float64{0.5, 0.5, 0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation errors")
	}
}

func TestCapacityRatios(t *testing.T) {
	cfg := DefaultConfig()
	high := cfg.CapacityFor(High)
	med := cfg.CapacityFor(Medium)
	low := cfg.CapacityFor(Low)
	// Section 6.1: high = 3× medium and 7× low.
	if math.Abs(high/med-3) > 1e-9 {
		t.Errorf("high/med = %v, want 3", high/med)
	}
	if math.Abs(high/low-7) > 1e-9 {
		t.Errorf("high/low = %v, want 7", high/low)
	}
	// High-capacity providers serve the two classes in 1.3 s and 1.5 s.
	if got := cfg.QueryClasses[0].Units / high; math.Abs(got-1.3) > 1e-9 {
		t.Errorf("class-0 service time at high capacity = %v, want 1.3", got)
	}
	if got := cfg.QueryClasses[1].Units / high; math.Abs(got-1.5) > 1e-9 {
		t.Errorf("class-1 service time at high capacity = %v, want 1.5", got)
	}
}

func TestConfigScale(t *testing.T) {
	cfg := DefaultConfig().Scale(0.25)
	if cfg.Consumers != 50 || cfg.Providers != 100 {
		t.Errorf("scaled population = %d/%d, want 50/100", cfg.Consumers, cfg.Providers)
	}
	if cfg.ProviderK != 125 {
		t.Errorf("scaled provider window = %d, want 125 (k/|P| preserved)", cfg.ProviderK)
	}
	if cfg.ConsumerK != 200 {
		t.Errorf("consumer window = %d, should not scale", cfg.ConsumerK)
	}
	tiny := DefaultConfig().Scale(0.0001)
	if tiny.Consumers < 1 || tiny.Providers < 1 {
		t.Error("scaling must keep at least one participant of each kind")
	}
	same := DefaultConfig().Scale(0)
	if same.Consumers != 200 {
		t.Error("non-positive factor should be treated as 1")
	}
}

func TestPopulationClassProportions(t *testing.T) {
	cfg := DefaultConfig()
	pop := NewPopulation(cfg, randx.New(7), 0)

	count := func(dim func(*Provider) ClassLevel) [3]int {
		var c [3]int
		for _, p := range pop.Providers {
			c[dim(p)]++
		}
		return c
	}
	interest := count(func(p *Provider) ClassLevel { return p.InterestClass })
	if interest[Low] != 40 || interest[Medium] != 120 || interest[High] != 240 {
		t.Errorf("interest classes = %v, want [40 120 240]", interest)
	}
	adapt := count(func(p *Provider) ClassLevel { return p.AdaptClass })
	if adapt[Low] != 20 || adapt[Medium] != 240 || adapt[High] != 140 {
		t.Errorf("adaptation classes = %v, want [20 240 140]", adapt)
	}
	capc := count(func(p *Provider) ClassLevel { return p.CapClass })
	if capc[Low] != 40 || capc[Medium] != 240 || capc[High] != 120 {
		t.Errorf("capacity classes = %v, want [40 240 120]", capc)
	}
}

func TestPopulationPreferenceBands(t *testing.T) {
	cfg := DefaultConfig()
	pop := NewPopulation(cfg, randx.New(11), 0)
	for _, p := range pop.Providers {
		band := cfg.AdaptBands[p.AdaptClass]
		for class := range cfg.QueryClasses {
			pref := p.Preference(class)
			if pref < band[0]-1e-9 || pref > band[1]+1e-9 {
				t.Fatalf("provider %d pref %v outside band %v of class %v", p.ID, pref, band, p.AdaptClass)
			}
		}
	}
	for _, c := range pop.Consumers {
		for _, p := range pop.Providers {
			band := cfg.InterestBands[p.InterestClass]
			pref := c.Preference(p, 0)
			if pref < band[0]-1e-9 || pref > band[1]+1e-9 {
				t.Fatalf("consumer %d pref %v for provider %d outside band %v", c.ID, pref, p.ID, band)
			}
		}
	}
}

func TestPopulationDeterminism(t *testing.T) {
	cfg := DefaultConfig().Scale(0.1)
	a := NewPopulation(cfg, randx.New(42), 0)
	b := NewPopulation(cfg, randx.New(42), 0)
	for i := range a.Providers {
		pa, pb := a.Providers[i], b.Providers[i]
		if pa.Capacity != pb.Capacity || pa.InterestClass != pb.InterestClass ||
			pa.Preference(0) != pb.Preference(0) || pa.Reputation != pb.Reputation {
			t.Fatalf("provider %d differs across identical seeds", i)
		}
	}
	for i := range a.Consumers {
		if a.Consumers[i].Preference(a.Providers[0], 0) != b.Consumers[i].Preference(b.Providers[0], 0) {
			t.Fatalf("consumer %d differs across identical seeds", i)
		}
	}
}

func TestTotalCapacityAndAliveness(t *testing.T) {
	cfg := DefaultConfig().Scale(0.05) // 10 consumers, 20 providers
	pop := NewPopulation(cfg, randx.New(3), 0)
	total := pop.TotalCapacity()
	if total <= 0 {
		t.Fatal("total capacity must be positive")
	}
	departed := pop.Providers[0]
	departed.Depart(ReasonNone)
	if !departed.Alive() {
		t.Error("a ReasonNone departure took the provider out")
	}
	departed.Depart(ReasonStarvation)
	if departed.Alive() || departed.DepartReason() != ReasonStarvation {
		t.Errorf("after Depart: alive %v, reason %v", departed.Alive(), departed.DepartReason())
	}
	if got := len(pop.AliveProviders()); got != len(pop.Providers)-1 {
		t.Errorf("alive providers = %d, want %d", got, len(pop.Providers)-1)
	}
	departed.Rejoin()
	if !departed.Alive() || departed.DepartReason() != ReasonNone {
		t.Errorf("after Rejoin: alive %v, reason %v", departed.Alive(), departed.DepartReason())
	}
	pop.Consumers[0].Depart(ReasonDissatisfaction)
	if got := len(pop.ConsumerValues(true, func(*Consumer) float64 { return 0 })); got != len(pop.Consumers)-1 {
		t.Errorf("alive consumers = %d, want %d", got, len(pop.Consumers)-1)
	}
}

func TestProviderAssignAndBacklog(t *testing.T) {
	cfg := DefaultConfig()
	pop := NewPopulation(cfg, randx.New(1), 0)
	var p *Provider
	for _, cand := range pop.Providers {
		if cand.CapClass == High {
			p = cand
			break
		}
	}
	if p == nil {
		t.Fatal("no high-capacity provider")
	}
	// First query: starts immediately, 130 units at 100 u/s = 1.3 s.
	done := p.Assign(0, 130)
	if math.Abs(done-1.3) > 1e-9 {
		t.Errorf("completion = %v, want 1.3", done)
	}
	// Second query queues FIFO behind the first.
	done2 := p.Assign(0.5, 150)
	if math.Abs(done2-(1.3+1.5)) > 1e-9 {
		t.Errorf("completion = %v, want 2.8", done2)
	}
	if got := p.Backlog(1.0); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("backlog = %v, want 1.8", got)
	}
	if got := p.Backlog(5.0); got != 0 {
		t.Errorf("backlog after drain = %v, want 0", got)
	}
	if p.QueriesPerformed != 2 {
		t.Errorf("QueriesPerformed = %d, want 2", p.QueriesPerformed)
	}
}

func TestProviderServiceTimeByClass(t *testing.T) {
	cfg := DefaultConfig()
	pop := NewPopulation(cfg, randx.New(5), 0)
	for _, p := range pop.Providers {
		want := 130 / p.Capacity
		if got := p.ServiceTime(130); math.Abs(got-want) > 1e-12 {
			t.Fatalf("service time = %v, want %v", got, want)
		}
	}
}

func TestSetPreferenceClamps(t *testing.T) {
	cfg := DefaultConfig().Scale(0.05)
	pop := NewPopulation(cfg, randx.New(9), 0)
	c := pop.Consumers[0]
	c.SetPreference(0, 5)
	if got := c.Preference(pop.Providers[0], 0); got != 1 {
		t.Errorf("preference = %v, want clamped 1", got)
	}
	c.SetPreference(-1, 0.5) // out-of-range id ignored
	p := pop.Providers[0]
	p.SetPreference(0, -5)
	if got := p.Preference(0); got != -1 {
		t.Errorf("preference = %v, want clamped -1", got)
	}
	p.SetPreference(99, 0.5) // out-of-range class ignored
	if got := p.Preference(99); got != 0 {
		t.Errorf("out-of-range class preference = %v, want 0", got)
	}
}

func TestClassLevelAndReasonStrings(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "med" || High.String() != "high" {
		t.Error("unexpected class level labels")
	}
	if ReasonDissatisfaction.String() != "dissatisfaction" ||
		ReasonStarvation.String() != "starvation" ||
		ReasonOverutilization.String() != "overutilization" ||
		ReasonNone.String() != "none" {
		t.Error("unexpected reason labels")
	}
	if ClassLevel(9).String() == "" || DepartureReason(9).String() == "" {
		t.Error("out-of-range enums must still print")
	}
}

func TestMeanQueryUnits(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.MeanQueryUnits(); math.Abs(got-140) > 1e-9 {
		t.Errorf("mean units = %v, want 140", got)
	}
	empty := Config{}
	if got := empty.MeanQueryUnits(); got != 0 {
		t.Errorf("mean units of empty class list = %v, want 0", got)
	}
}
