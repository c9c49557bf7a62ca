package experiments

import (
	"fmt"
	"sort"

	"sqlb/internal/allocator"
	"sqlb/internal/sim"
	"sqlb/internal/stats"
	"sqlb/internal/workload"
)

// sweepKind selects the autonomy setting of a workload sweep.
type sweepKind string

const (
	sweepCaptive      sweepKind = "captive"       // Figure 4(i)
	sweepDissatStarve sweepKind = "dissat-starve" // Figure 5(a)
	sweepFullAutonomy sweepKind = "full-autonomy" // Figures 5(b), 5(c), 6, Table 3
)

func (k sweepKind) autonomy() sim.Autonomy {
	switch k {
	case sweepDissatStarve:
		return sim.DissatStarvationAutonomy()
	case sweepFullAutonomy:
		return sim.FullAutonomy()
	default:
		return sim.Autonomy{}
	}
}

// sweepResults runs (or returns memoized) the constant-workload
// simulations of one sweep point.
func (l *Lab) sweepResults(kind sweepKind, method allocator.Allocator, frac float64) ([]*sim.Result, error) {
	// The key carries the exact fraction (not a rounded percent) so two
	// workloads that round alike never share a bundle.
	key := fmt.Sprintf("%s/%s/%v", kind, method.Name(), frac)
	pct := int(frac*100 + 0.5)
	return l.bundle(key, fmt.Sprintf("%s/%s/w%d", kind, method.Name(), pct), func(rep int) sim.Options {
		return sim.Options{
			Config:   l.cfg.Model,
			Strategy: method,
			Workload: workload.Constant(frac),
			Duration: l.cfg.SweepDuration,
			Seed:     l.seedFor(string(kind), method.Name(), pct, rep),
			Autonomy: kind.autonomy(),
		}
	})
}

// The per-run metrics the sweep figures plot.
func responseTime(r *sim.Result) float64       { return r.MeanResponseTime }
func providerDepartures(r *sim.Result) float64 { return 100 * r.ProviderDepartureRate() }
func consumerDepartures(r *sim.Result) float64 { return 100 * r.ConsumerDepartureRate() }

// sweepFigure returns the runner of one workload-sweep figure (Figures
// 4(i), 5 and 6): per method, the metric averaged over the repetitions at
// every configured workload, under the kind's autonomy setting, with the
// paper's expected shape as its note. All (method, workload) bundles are
// warmed concurrently; the assembly below then reads settled memo cells in
// a fixed order, so the chart is identical at any Workers value.
func sweepFigure(id, title, ylabel string, kind sweepKind, metric func(*sim.Result) float64, expected string) func(*Lab) (*Result, error) {
	return func(l *Lab) (*Result, error) {
		chart := &stats.Chart{ID: id, Title: title, XLabel: "workload (% of total system capacity)", YLabel: ylabel}
		fracs := append([]float64(nil), l.cfg.Workloads...)
		sort.Float64s(fracs)
		ms := methods()
		warm(len(ms)*len(fracs), func(i int) {
			l.sweepResults(kind, ms[i/len(fracs)], fracs[i%len(fracs)]) //nolint:errcheck // memoized; re-surfaced below
		})
		for _, m := range ms {
			s := stats.Series{Name: m.Name()}
			for _, frac := range fracs {
				rs, err := l.sweepResults(kind, m, frac)
				if err != nil {
					return nil, err
				}
				sum := 0.0
				for _, r := range rs {
					sum += metric(r)
				}
				s.Add(frac*100, sum/float64(len(rs)))
			}
			chart.AddSeries(s)
		}
		return &Result{ID: id, Title: title, Charts: []*stats.Chart{chart},
			Notes: []string{"expected shape: " + expected}}, nil
	}
}
