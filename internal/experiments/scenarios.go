package experiments

import (
	"fmt"

	"sqlb/internal/scenario"
	"sqlb/internal/sim"
	"sqlb/internal/stats"
	"sqlb/internal/workload"
)

// scenarioWorkload is the base workload of scenario runs whose scenario
// carries no load curve of its own (custom wave-only files); presets all
// override it.
const scenarioWorkload = 0.8

// runExtScenarios sweeps the scenario library: every configured scenario
// (the five presets by default, or Config.Scenarios) runs under full
// autonomy with every allocation method, and the table compares how
// satisfaction, fairness, drops, and departures hold up through flash
// crowds, diurnal swings, maintenance windows, and outage waves — the
// regimes where mediation earns its keep beyond the paper's constant and
// ramped workloads. One response-time time-series chart per scenario shows
// the transient (the flash-crowd spike, the post-outage recovery).
//
// Determinism: the (scenario, method, repetition) grid fans out over the
// worker budget into index-addressed slots and every run's seed derives
// from BaseSeed and the run's identity alone, so artifacts are
// byte-identical at any Workers value — the same contract as every other
// Lab bundle.
func runExtScenarios(l *Lab) (*Result, error) {
	names := l.cfg.Scenarios
	if len(names) == 0 {
		names = scenario.Names()
	}
	scens := make([]*scenario.Scenario, len(names))
	for i, name := range names {
		s, err := scenario.Resolve(name)
		if err != nil {
			return nil, err
		}
		scens[i] = s
	}
	ms := methods()
	reps := l.cfg.Repeats

	results := make([]*sim.Result, len(scens)*len(ms)*reps)
	err := l.fanOut(len(results), func(i int) (err error) {
		scn := scens[i/(len(ms)*reps)]
		m := ms[(i/reps)%len(ms)]
		rep := i % reps
		results[i], err = l.simulate(fmt.Sprintf("ext-scenarios/%s/%s/rep%d", scn.Name, m.Name(), rep), sim.Options{
			Config:   l.cfg.Model,
			Strategy: m,
			Workload: workload.Constant(scenarioWorkload),
			Scenario: scn,
			Duration: l.cfg.SweepDuration,
			Seed:     l.seedFor("scenario/"+scn.Name, m.Name(), 0, rep),
			Autonomy: sim.FullAutonomy(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	tbl := &stats.Table{
		ID:    "ext-scenarios",
		Title: "Scenario sweep under full autonomy (satisfaction/fairness/drops per preset)",
		Header: []string{
			"scenario", "method", "dropped_pct", "resp_mean_s", "resp_p95_s",
			"cons_sat", "cons_fairness", "prov_sat_pref", "util_fairness",
			"departures_pct", "rejoins",
		},
	}
	charts := make([]*stats.Chart, 0, len(scens))
	for si, scn := range scens {
		chart := &stats.Chart{
			ID:     "ext-scenario-" + scn.Name + "-resp",
			Title:  fmt.Sprintf("Response time through %q (%s)", scn.Name, scn.Description),
			XLabel: "time (sim-seconds)", YLabel: "window mean response time (seconds)",
		}
		for mi, m := range ms {
			var drop, resp, p95, cs, cf, psp, uf, dep, joins float64
			series := stats.Series{Name: m.Name()}
			nSamples := -1
			for rep := 0; rep < reps; rep++ {
				r := results[si*len(ms)*reps+mi*reps+rep]
				if r.IssuedQueries > 0 {
					drop += 100 * float64(r.DroppedQueries) / float64(r.IssuedQueries)
				}
				resp += r.MeanResponseTime
				p95 += r.ResponseHistogram.Quantile(0.95)
				cs += r.Final.ConsSat.Mean
				cf += r.Final.ConsSat.Fairness
				psp += r.Final.ProvSatPreference.Mean
				uf += r.Final.Utilization.Fairness
				dep += 100 * r.ProviderDepartureRate()
				joins += float64(len(r.ProviderJoins))
				if nSamples < 0 || len(r.Samples) < nSamples {
					nSamples = len(r.Samples)
				}
			}
			n := float64(reps)
			for s := 0; s < nSamples; s++ {
				sum := 0.0
				for rep := 0; rep < reps; rep++ {
					sum += results[si*len(ms)*reps+mi*reps+rep].Samples[s].ResponseTimeMean
				}
				series.Add(results[si*len(ms)*reps+mi*reps].Samples[s].Time, sum/n)
			}
			chart.AddSeries(series)
			tbl.AddRow(scn.Name, m.Name(),
				fmt.Sprintf("%.2f%%", drop/n),
				fmt.Sprintf("%.2f", resp/n),
				fmt.Sprintf("%.2f", p95/n),
				fmt.Sprintf("%.3f", cs/n),
				fmt.Sprintf("%.3f", cf/n),
				fmt.Sprintf("%.3f", psp/n),
				fmt.Sprintf("%.3f", uf/n),
				fmt.Sprintf("%.0f%%", dep/n),
				fmt.Sprintf("%.1f", joins/n),
			)
		}
		charts = append(charts, chart)
	}
	return &Result{
		ID:     "ext-scenarios",
		Title:  "Scenario sweep (time-varying load and churn)",
		Charts: charts,
		Tables: []*stats.Table{tbl},
		Notes: []string{
			"every run uses full autonomy (Figure 5(b) departure rules) on top of the scenario's scheduled churn",
			"departures_pct counts autonomy departures plus outage-wave victims; rejoins counts re-registered providers",
		},
	}, nil
}
