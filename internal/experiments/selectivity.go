package experiments

import (
	"fmt"

	"sqlb/internal/sim"
	"sqlb/internal/stats"
	"sqlb/internal/workload"
)

// selectivityClasses is the class count of the capability sweep: enough
// classes that low selectivities produce genuine specialists (at the
// default 8, a selectivity of 0.1 means each specialist advertises a
// single class).
const selectivityClasses = 8

// selectivityWorkload is the constant workload of the sweep — the Table 3
// reference point (80% of total capacity).
const selectivityWorkload = 0.8

// runExtSelectivity sweeps the capability selectivity — the axis the
// indexed matchmaker opens beyond the paper's homogeneous setup: at each
// selectivity s, providers advertise max(1, round(s·classes)) query
// classes, so the matchmade candidate set |Pq| shrinks to ≈ s·|P| and
// some queries find an empty posting list. The charts show, per
// allocation method, the mean response time and the dropped-query share
// over selectivity; the table adds the effective classes-advertised count
// per point (distinct selectivities can round to the same count — the
// default sweep uses exact multiples of 1/8 so they never do). The lab's
// Classes and ClassSkew overrides are honored; without them the sweep
// uses 8 classes and Zipf-1 popularity.
func runExtSelectivity(l *Lab) (*Result, error) {
	sels := append([]float64(nil), l.cfg.Selectivities...)
	ms := methods()
	reps := l.cfg.Repeats

	base := l.modelConfig()
	if l.cfg.Classes <= 1 {
		base = base.WithClasses(selectivityClasses)
	}
	if l.cfg.ClassSkew <= 0 {
		base.ClassSkew = 1
	}
	nClasses := len(base.QueryClasses)

	// (method, selectivity, repetition) grid, fanned out over the worker
	// budget and collected into index-addressed slots — deterministic at
	// any Workers value, like every other Lab bundle.
	results := make([]*sim.Result, len(ms)*len(sels)*reps)
	err := l.fanOut(len(results), func(i int) error {
		m := ms[i/(len(sels)*reps)]
		sel := sels[(i/reps)%len(sels)]
		rep := i % reps
		cfg := base
		cfg.CapabilitySelectivity = sel
		opts := sim.Options{
			Config:   cfg,
			Strategy: m,
			Workload: workload.Constant(selectivityWorkload),
			Duration: l.cfg.SweepDuration,
			// Quantize at 1e-6 so custom -selectivities closer than a
			// percent still get distinct RNG streams.
			Seed: l.seedFor("selectivity", m.Name(), int(sel*1e6+0.5), rep),
		}
		eng, err := sim.New(opts)
		if err != nil {
			return err
		}
		results[i] = eng.Run()
		return nil
	})
	if err != nil {
		return nil, err
	}

	respChart := &stats.Chart{
		ID: "ext-selectivity-resp", Title: "Response time vs capability selectivity (80% workload)",
		XLabel: "selectivity (% of query classes advertised)", YLabel: "response time (seconds)",
	}
	dropChart := &stats.Chart{
		ID: "ext-selectivity-drops", Title: "Dropped queries vs capability selectivity (80% workload)",
		XLabel: "selectivity (% of query classes advertised)", YLabel: "dropped (% of issued queries)",
	}
	tbl := &stats.Table{
		ID: "ext-selectivity",
		Title: fmt.Sprintf("Capability-selectivity sweep, %d classes, Zipf-%g popularity, 80%% workload",
			nClasses, base.ClassSkew),
		Header: []string{
			"method", "selectivity_pct", "classes_advertised", "dropped_pct", "resp_mean_s",
			"resp_p95_s", "util_fairness", "prov_sat_pref",
		},
	}
	for mi, m := range ms {
		resp := stats.Series{Name: m.Name()}
		drop := stats.Series{Name: m.Name()}
		for si, sel := range sels {
			var respSum, p95Sum, dropSum, utilF, psp float64
			for rep := 0; rep < reps; rep++ {
				r := results[mi*len(sels)*reps+si*reps+rep]
				if r.Err != nil {
					return nil, fmt.Errorf("selectivity %v rep %d: %w", sel, rep, r.Err)
				}
				respSum += r.MeanResponseTime
				p95Sum += r.ResponseHistogram.Quantile(0.95)
				if r.IssuedQueries > 0 {
					dropSum += 100 * float64(r.DroppedQueries) / float64(r.IssuedQueries)
				}
				utilF += r.Final.Utilization.Fairness
				psp += r.Final.ProvSatPreference.Mean
			}
			n := float64(reps)
			resp.Add(sel*100, respSum/n)
			drop.Add(sel*100, dropSum/n)
			pointCfg := base
			pointCfg.CapabilitySelectivity = sel
			tbl.AddRow(m.Name(),
				fmt.Sprintf("%.0f%%", sel*100),
				fmt.Sprintf("%d/%d", pointCfg.CapabilityCount(), nClasses),
				fmt.Sprintf("%.2f%%", dropSum/n),
				fmt.Sprintf("%.2f", respSum/n),
				fmt.Sprintf("%.2f", p95Sum/n),
				fmt.Sprintf("%.3f", utilF/n),
				fmt.Sprintf("%.3f", psp/n),
			)
		}
		respChart.AddSeries(resp)
		dropChart.AddSeries(drop)
	}
	return &Result{
		ID:     "ext-selectivity",
		Title:  "Capability-selectivity sweep (heterogeneous matchmaking)",
		Charts: []*stats.Chart{respChart, dropChart},
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"|Pq| ≈ selectivity × |P|: the indexed matchmaker touches only the candidate subset per query",
			"drops are queries whose class no alive provider advertises (empty posting list)",
		},
	}, nil
}
