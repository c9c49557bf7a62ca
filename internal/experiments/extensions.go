package experiments

import (
	"fmt"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/sim"
	"sqlb/internal/stats"
	"sqlb/internal/workload"
)

// ExtensionRegistry lists experiments beyond the paper's artifacts: the
// DESIGN.md §4 ablations and the extension-strategy comparisons. They run
// through the same Lab but are kept out of Registry so RunAll reproduces
// exactly the paper's set.
var ExtensionRegistry = []Spec{
	{"ext-omega", "Ablation: adaptive ω (Eq 6) vs fixed ω", runExtOmega},
	{"ext-upsilon", "Ablation: consumer υ (preferences vs reputation)", runExtUpsilon},
	{"ext-methods", "Extension strategy vs SQLB (SQLB-econ)", runExtMethods},
	{"ext-selectivity", "Capability-selectivity sweep (heterogeneous matchmaking)", runExtSelectivity},
	{"ext-scenarios", "Scenario sweep: time-varying load and churn presets", runExtScenarios},
}

// FindAny looks an experiment up in both registries.
func FindAny(id string) (Spec, bool) {
	if s, ok := Find(id); ok {
		return s, true
	}
	for _, s := range ExtensionRegistry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// RunAny executes a paper or extension experiment by ID.
func (l *Lab) RunAny(id string) (*Result, error) {
	spec, ok := FindAny(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return spec.Run(l)
}

// extensionTable builds a comparison table over named variants, each a
// full-autonomy run at the Table 3 reference workload with its strategy
// and config mutation. The whole (variant, repetition) grid fans out over
// the worker budget; aggregation then walks the index-addressed results in
// a fixed order, keeping the table deterministic.
func (l *Lab) extensionTable(id, title string, variants []variant) (*Result, error) {
	tbl := &stats.Table{
		ID:    id,
		Title: title,
		Header: []string{
			"variant", "prov_departures_pct", "cons_departures_pct",
			"resp_mean_s", "resp_p95_s", "cons_allocsat", "prov_sat_pref",
		},
	}
	reps := l.cfg.Repeats
	results := make([]*sim.Result, len(variants)*reps)
	err := l.fanOut(len(results), func(i int) (err error) {
		v, rep := variants[i/reps], i%reps
		cfg := l.cfg.Model
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		results[i], err = l.simulate(fmt.Sprintf("%s/%s/rep%d", id, v.name, rep), sim.Options{
			Config:   cfg,
			Strategy: v.strategy,
			Workload: workload.Constant(table3Workload),
			Duration: l.cfg.SweepDuration,
			Seed:     l.seedFor("extension", v.strategy.Name(), 80, rep),
			Autonomy: sim.FullAutonomy(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		var provLoss, consLoss, resp, p95, cas, psp float64
		for rep := 0; rep < reps; rep++ {
			res := results[vi*reps+rep]
			provLoss += 100 * res.ProviderDepartureRate()
			consLoss += 100 * res.ConsumerDepartureRate()
			resp += res.MeanResponseTime
			p95 += res.ResponseHistogram.Quantile(0.95)
			cas += res.Final.ConsAllocSat.Mean
			psp += res.Final.ProvSatPreference.Mean
		}
		n := float64(reps)
		tbl.AddRow(v.name,
			fmt.Sprintf("%.0f%%", provLoss/n),
			fmt.Sprintf("%.0f%%", consLoss/n),
			fmt.Sprintf("%.1f", resp/n),
			fmt.Sprintf("%.1f", p95/n),
			fmt.Sprintf("%.2f", cas/n),
			fmt.Sprintf("%.2f", psp/n),
		)
	}
	return &Result{ID: id, Title: title, Tables: []*stats.Table{tbl}}, nil
}

type variant = struct {
	name     string
	strategy allocator.Allocator
	mutate   func(*model.Config)
}

func runExtOmega(l *Lab) (*Result, error) {
	r, err := l.extensionTable("ext-omega",
		"Adaptive ω (Equation 6) vs fixed ω, 80% workload, full autonomy",
		[]variant{
			{"adaptive (Eq 6)", allocator.NewSQLB(), nil},
			{"fixed ω=0 (consumer only)", allocator.NewSQLBFixedOmega(0), nil},
			{"fixed ω=0.5", allocator.NewSQLBFixedOmega(0.5), nil},
			{"fixed ω=1 (provider only)", allocator.NewSQLBFixedOmega(1), nil},
		})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"the adaptive balance is SQLB's fairness mechanism: fixed extremes trade one side's departures for the other's")
	return r, nil
}

func runExtUpsilon(l *Lab) (*Result, error) {
	mk := func(u float64) func(*model.Config) {
		return func(c *model.Config) {
			c.Upsilon = u
			c.ReputationFeedbackAlpha = 0.05 // make reputation meaningful
		}
	}
	r, err := l.extensionTable("ext-upsilon",
		"Consumer υ: preferences vs feedback-driven reputation, 80% workload",
		[]variant{
			{"υ=1 (preferences only, paper)", allocator.NewSQLB(), mk(1)},
			{"υ=0.5 (balanced)", allocator.NewSQLB(), mk(0.5)},
			{"υ=0 (reputation only)", allocator.NewSQLB(), mk(0)},
		})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"with feedback-driven reputation, rep(p) converges to consumer consensus; υ<1 consumers follow the crowd")
	return r, nil
}

func runExtMethods(l *Lab) (*Result, error) {
	r, err := l.extensionTable("ext-methods",
		"Extension strategies vs the paper's methods, 80% workload, full autonomy",
		[]variant{
			{"SQLB", allocator.NewSQLB(), nil},
			{"SQLB-econ (Section 7)", allocator.NewSQLBEconomic(), nil},
			{"Capacity based", allocator.NewCapacityBased(), nil},
		})
	if err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"SQLB-econ replaces Definition 9's geometric balance with a linear-utility bid")
	return r, nil
}
