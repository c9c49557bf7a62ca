package sqlb_test

import (
	"math"
	"testing"

	"sqlb"
)

func TestFacadeQuickstart(t *testing.T) {
	cfg := sqlb.DefaultConfig().Scale(0.1)
	pop := sqlb.NewPopulation(cfg, 42)
	med := sqlb.NewMediator(sqlb.NewSQLB())
	q := &sqlb.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: 1}
	alloc, err := med.Allocate(0, q, pop)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if len(alloc.Selected) != 1 {
		t.Fatalf("selected %d providers, want 1", len(alloc.Selected))
	}
	sel := alloc.SelectedProviders()[0]
	if !sel.Alive {
		t.Error("selected provider should be alive")
	}
}

func TestFacadeSimulation(t *testing.T) {
	opts := sqlb.SimOptions{
		Config:   sqlb.DefaultConfig().Scale(0.05),
		Strategy: sqlb.NewCapacityBased(),
		Workload: sqlb.ConstantWorkload(0.5),
		Duration: 200,
		Seed:     7,
	}
	simu, err := sqlb.NewSimulation(opts)
	if err != nil {
		t.Fatalf("NewSimulation: %v", err)
	}
	res := simu.Run()
	if res.CompletedQueries == 0 {
		t.Fatal("no queries completed")
	}
	if res.Method != "Capacity based" {
		t.Errorf("method = %q", res.Method)
	}
}

func TestFacadeAllocators(t *testing.T) {
	allocs := []sqlb.Allocator{
		sqlb.NewSQLB(), sqlb.NewSQLBFixedOmega(0.5), sqlb.NewCapacityBased(),
		sqlb.NewMariposaLike(), sqlb.NewKnBest(), sqlb.NewSQLBEconomic(),
		sqlb.NewRandom(1),
	}
	names := map[string]bool{}
	for _, a := range allocs {
		if a.Name() == "" {
			t.Error("allocator with empty name")
		}
		names[a.Name()] = true
	}
	if len(names) != len(allocs) {
		t.Errorf("allocator names not distinct: %v", names)
	}
}

func TestFacadeMetrics(t *testing.T) {
	vs := []float64{0.2, 1, 0.6}
	if got := sqlb.Mean(vs); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("Mean = %v", got)
	}
	if got := sqlb.Fairness(vs); math.Abs(got-0.7714) > 0.001 {
		t.Errorf("Fairness = %v", got)
	}
	if got := sqlb.Balance(vs); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("Balance = %v, want (0.2+1)/(1+1)", got)
	}
	s := sqlb.Summarize(vs)
	if s.N != 3 {
		t.Errorf("Summarize.N = %d", s.N)
	}
}

func TestFacadeFormulas(t *testing.T) {
	if got := sqlb.ConsumerIntention(0.7, 0.5, 1, 1); got != 0.7 {
		t.Errorf("υ=1 consumer intention = %v, want the preference", got)
	}
	if got := sqlb.ProviderIntention(0.8, 0.3, 1, 1); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("δs=1 provider intention = %v, want 1-Ut", got)
	}
	if got := sqlb.Omega(0.8, 0.6); math.Abs(got-0.6) > 1e-9 {
		t.Errorf("Omega = %v", got)
	}
	if got := sqlb.Score(0.9, 0.4, 0.5, 1); math.Abs(got-math.Sqrt(0.36)) > 1e-9 {
		t.Errorf("Score = %v", got)
	}
}

// TestFacadeProviderIntentionUnderHostileInputs: whatever a caller passes
// for the preference, utilization, satisfaction and ε — NaN, ±Inf, signed
// zeros, out-of-range magnitudes — Definition 8 answers with a number a
// ranking can order, positive only for a wanted query below full load.
func TestFacadeProviderIntentionUnderHostileInputs(t *testing.T) {
	hostile := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324,
		0.3, 0.5, 1 - 1e-16, 1, 1 + 1e-16, 2.5, -0.4, -1, -7, 1e300, -1e300,
	}
	for _, pref := range hostile {
		for _, util := range hostile {
			for _, sat := range hostile {
				for _, eps := range hostile {
					got := sqlb.ProviderIntention(pref, util, sat, eps)
					if math.IsNaN(got) {
						t.Fatalf("ProviderIntention(%v, %v, %v, %v) is NaN", pref, util, sat, eps)
					}
					wanted := pref > 0 && !(util >= 1) // a NaN utilization reads as idle
					if (got > 0) != wanted {
						t.Fatalf("ProviderIntention(%v, %v, %v, %v) = %v, want positive iff wanted and below full load", pref, util, sat, eps, got)
					}
				}
			}
		}
	}
}

func TestFacadeExperimentList(t *testing.T) {
	ids := sqlb.Experiments()
	if len(ids) != 17 {
		t.Fatalf("experiments = %d, want 17", len(ids))
	}
	if ids[0] != "table1" || ids[len(ids)-1] != "fig6" {
		t.Errorf("unexpected experiment order: %v", ids)
	}
}

func TestFacadeExperimentLab(t *testing.T) {
	lab := sqlb.NewExperimentLab(sqlb.ExperimentConfig{
		Scale: 0.05, Duration: 200, SweepDuration: 300, Repeats: 1,
		BaseSeed: 3, SampleInterval: 50, Workloads: []float64{0.5},
	})
	res, err := lab.Run("table1")
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if res.ID != "table1" || len(res.Tables) != 1 {
		t.Errorf("unexpected result %+v", res)
	}
}

func TestFacadeAutonomySettings(t *testing.T) {
	full := sqlb.FullAutonomy()
	if !full.ConsumersMayLeave || !full.ProvidersOverutilization {
		t.Error("FullAutonomy should enable all rules")
	}
	ds := sqlb.DissatStarvationAutonomy()
	if ds.ProvidersOverutilization {
		t.Error("DissatStarvationAutonomy must not enable overutilization")
	}
}
