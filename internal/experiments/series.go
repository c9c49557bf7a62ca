package experiments

import (
	"fmt"

	"sqlb/internal/sim"
	"sqlb/internal/stats"
)

// fig4Panel describes one Figure 4 time-series panel: which sample field it
// plots and how the axis is labelled.
type fig4Panel struct {
	title   string
	ylabel  string
	extract func(sim.Sample) float64
}

var fig4Panels = map[string]fig4Panel{
	"fig4a": {
		title:   "Providers' satisfaction mean based on intentions, µ(δs,P)",
		ylabel:  "satisfaction mean",
		extract: func(s sim.Sample) float64 { return s.ProvSatIntention.Mean },
	},
	"fig4b": {
		title:   "Providers' satisfaction mean based on preferences, µ(δs,P)",
		ylabel:  "satisfaction mean",
		extract: func(s sim.Sample) float64 { return s.ProvSatPreference.Mean },
	},
	"fig4c": {
		title:   "Providers' allocation satisfaction mean based on preferences, µ(δas,P)",
		ylabel:  "allocation satisfaction mean",
		extract: func(s sim.Sample) float64 { return s.ProvAllocSatPreference.Mean },
	},
	"fig4d": {
		title:   "Provider satisfaction fairness, f(δs,P)",
		ylabel:  "satisfaction fairness",
		extract: func(s sim.Sample) float64 { return s.ProvSatIntention.Fairness },
	},
	"fig4e": {
		title:   "Consumers' allocation satisfaction mean, µ(δas,C)",
		ylabel:  "allocation satisfaction mean",
		extract: func(s sim.Sample) float64 { return s.ConsAllocSat.Mean },
	},
	"fig4f": {
		title:   "Consumer satisfaction fairness, f(δs,C)",
		ylabel:  "satisfaction fairness",
		extract: func(s sim.Sample) float64 { return s.ConsSat.Fairness },
	},
	"fig4g": {
		title:   "Query load mean, µ(Ut,P)",
		ylabel:  "utilization mean",
		extract: func(s sim.Sample) float64 { return s.Utilization.Mean },
	},
	"fig4h": {
		title:   "Query load fairness, f(Ut,P)",
		ylabel:  "utilization fairness",
		extract: func(s sim.Sample) float64 { return s.Utilization.Fairness },
	},
}

// figure4 returns the runner for one Figure 4 panel. All panels share the
// same memoized ramp runs (workload 30% → 100%, captive participants).
func figure4(id string) func(*Lab) (*Result, error) {
	return func(l *Lab) (*Result, error) {
		panel, ok := fig4Panels[id]
		if !ok {
			return nil, fmt.Errorf("unknown figure 4 panel %q", id)
		}
		chart := &stats.Chart{
			ID:     id,
			Title:  panel.title,
			XLabel: "time (seconds)",
			YLabel: panel.ylabel,
		}
		ms := methods()
		warm(len(ms), func(i int) {
			l.rampResults(ms[i]) //nolint:errcheck // memoized; re-surfaced below
		})
		for _, m := range ms {
			rs, err := l.rampResults(m)
			if err != nil {
				return nil, err
			}
			runs := make([][]stats.Point, 0, len(rs))
			for _, r := range rs {
				pts := make([]stats.Point, 0, len(r.Samples))
				for _, s := range r.Samples {
					pts = append(pts, stats.Point{X: s.Time, Y: panel.extract(s)})
				}
				runs = append(runs, pts)
			}
			chart.AddSeries(stats.MergeMeans(m.Name(), runs))
		}
		return &Result{
			ID:     id,
			Title:  panel.title,
			Charts: []*stats.Chart{chart},
			Notes: []string{
				"workload ramps uniformly from 30% to 100% of the total system capacity (Section 6.3.1)",
				"participants are captive (departures disabled)",
			},
		}, nil
	}
}
