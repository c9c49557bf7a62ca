package experiments

import (
	"fmt"

	"sqlb/internal/model"
	"sqlb/internal/sim"
	"sqlb/internal/stats"
)

// table3Workload is the workload the paper analyses departure reasons at.
const table3Workload = 0.8

// runTable3 reproduces Table 3: providers' reasons to leave at 80% of the
// total system capacity, broken down per reason (dissatisfaction,
// starvation, overutilization) and per provider class along the three
// dimensions (consumers' interest, adaptation ["Providers' Adequation"],
// capacity). Cells are the percentage of the providers of that class level
// that left for that reason; the total column is the percentage of all
// providers. Values average the repeated runs and reuse the Figure 5(b)
// full-autonomy sweep when 80% is part of it.
func runTable3(l *Lab) (*Result, error) {
	tbl := &stats.Table{
		ID:     "table3",
		Title:  "Provider departure reasons at 80% workload (% of providers)",
		Header: []string{"method", "reason", "dimension", "low", "med", "high", "total"},
	}

	ms := methods()
	warm(len(ms), func(i int) {
		l.sweepResults(sweepFullAutonomy, ms[i], table3Workload) //nolint:errcheck // memoized; re-surfaced below
	})

	// Every population of the model deals the same class counts
	// (model.ClassCounts), so the model's totals are every run's. Each
	// cell averages the runs' breakdowns.
	for _, m := range ms {
		rs, err := l.sweepResults(sweepFullAutonomy, m, table3Workload)
		if err != nil {
			return nil, err
		}
		n := float64(len(rs))
		for _, reason := range model.DepartureReasons {
			for _, dim := range sim.ClassDimensions {
				var perClass [3]float64
				var total float64
				for _, run := range rs {
					bd := run.Breakdown(dim, sim.ClassTotals(l.cfg.Model, dim))
					for lvl := range perClass {
						perClass[lvl] += bd.PerClass[reason][lvl]
					}
					total += bd.Total[reason]
				}
				tbl.AddRow(m.Name(), reason.String(), dim.String(),
					fmt.Sprintf("%.0f%%", perClass[model.Low]/n),
					fmt.Sprintf("%.0f%%", perClass[model.Medium]/n),
					fmt.Sprintf("%.0f%%", perClass[model.High]/n),
					fmt.Sprintf("%.0f%%", total/n),
				)
			}
		}
	}
	return &Result{
		ID:     "table3",
		Title:  tbl.Title,
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"expected shape: Capacity based dominated by dissatisfaction (med/high adaptation classes),",
			"Mariposa-like by overutilization (high classes), SQLB small and concentrated on low classes",
		},
	}, nil
}
