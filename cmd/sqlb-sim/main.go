// Command sqlb-sim runs one simulation of the SQLB mediation system and
// prints the §4 metric summary, response times, and (under autonomy) the
// departure accounting.
//
// With -repeats > 1 the repetitions run concurrently over a bounded worker
// pool (repetition r uses seed+r) and the summary reports per-run and
// averaged headline metrics; the run order never affects the numbers.
//
// Heterogeneous workloads: -classes k spreads k query classes over the
// paper's 130-150 treatment-unit band, -selectivity s makes each provider
// advertise s·k of them (matchmade through the capability index), and
// -class-skew z draws query classes with Zipf(z) popularity. Queries whose
// class no provider advertises are counted as dropped.
//
// Scenarios: -scenario overlays time-varying load and churn — a preset
// name (diurnal, flash-crowd, maintenance-window, outage-30pct,
// staged-churn) or a scenario file (see internal/scenario.Parse for the
// format). A scenario's load curve replaces -workload/-ramp; its churn
// waves take providers down (and bring them back) as scheduled events.
//
// Observability: -timeline streams each repetition's per-sample timeline
// snapshots to a CSV file as the run produces them (watch one live with
// sqlb-top -file run.csv -follow, or replay it afterwards). With
// -repeats > 1 each repetition writes its own file under the deterministic
// timeline.RepetitionPath scheme — "out.csv" becomes "out.rep0.csv",
// "out.rep1.csv", … (zero-padded so listings sort in repetition order);
// a single run keeps the exact name given. -top renders the dashboard
// in-process while the first repetition runs. The timeline is a pure
// observer: results are byte-identical with or without it.
//
// Usage:
//
//	sqlb-sim [-method name]
//	         [-workload f] [-ramp] [-scenario name|file]
//	         [-duration s] [-scale f] [-seed n]
//	         [-repeats n] [-workers n]
//	         [-classes k] [-selectivity s] [-class-skew z]
//	         [-autonomy off|dissat-starve|full]
//	         [-timeline file] [-top]
//	         [-cpuprofile file] [-memprofile file] [-trace file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/runflags"
	"sqlb/internal/scenario"
	"sqlb/internal/sim"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

func main() {
	var (
		method   = flag.String("method", "sqlb", "allocation method: "+allocator.Methods.Names())
		frac     = flag.Float64("workload", 0.8, "workload as a fraction of total system capacity")
		ramp     = flag.Bool("ramp", false, "ramp workload 30%→100% over the run (Figure 4 setting)")
		duration = flag.Float64("duration", 2500, "simulated seconds")
		seed     = flag.Uint64("seed", 42, "run seed (repetition r uses seed+r)")
		repeats  = flag.Int("repeats", 1, "repetitions to run and average (paper: 10)")
		workers  = flag.Int("workers", 0, "concurrent repetitions (0 = GOMAXPROCS)")
		autonomy = flag.String("autonomy", "off", "departures: off, dissat-starve, full")
		tlPath   = flag.String("timeline", "", "stream each repetition's timeline snapshots to this CSV file, one file per repetition (watch with sqlb-top)")
		top      = flag.Bool("top", false, "render the live sqlb-top dashboard while the first repetition runs")
		scenFlag = flag.String("scenario", "", "time-varying load/churn scenario: a preset ("+strings.Join(scenario.Names(), ", ")+") or a scenario file")
	)
	pop := runflags.BindPopulation(flag.CommandLine, 0.25)
	prof := runflags.BindProfile(flag.CommandLine)
	flag.Parse()

	if *repeats < 1 {
		*repeats = 1
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	var profile workload.Profile = workload.Constant(*frac)
	if *ramp {
		profile = workload.Ramp{From: 0.3, To: 1.0, Duration: *duration}
	}
	var scn *scenario.Scenario
	if *scenFlag != "" {
		var err error
		if scn, err = scenario.Resolve(*scenFlag); err != nil {
			fatal("%v", err)
		}
	}
	var auto sim.Autonomy
	switch *autonomy {
	case "off":
	case "dissat-starve":
		auto = sim.DissatStarvationAutonomy()
	case "full":
		auto = sim.FullAutonomy()
	default:
		fatal("unknown -autonomy %q", *autonomy)
	}

	// Fan the repetitions out over the worker budget. Each repetition gets
	// its own strategy instance and seed, so results[r] is the same whether
	// the runs happen serially or concurrently.
	cfg := pop.Config()
	stopProfile, err := prof.Start()
	if err != nil {
		fatal("%v", err)
	}
	results := make([]*sim.Result, *repeats)
	errs := make([]error, *repeats)
	sem := make(chan struct{}, *workers)
	var wg sync.WaitGroup
	for r := 0; r < *repeats; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			repSeed := *seed + uint64(r)
			strategy, err := allocator.Methods.New(*method, repSeed)
			if err != nil {
				errs[r] = err
				return
			}
			// Every repetition streams to its own CSV file, named by the
			// deterministic timeline.RepetitionPath scheme ("out.csv" →
			// "out.rep0.csv", …; a single run keeps the plain path), and
			// -top draws the first repetition's dashboard, its frames
			// paced so the virtual-time run plays as a short animation.
			path := timeline.RepetitionPath(*tlPath, r, *repeats)
			sink, err := timeline.Live(path, *top && r == 0, 40*time.Millisecond)
			if err != nil {
				errs[r] = err
				return
			}
			results[r], errs[r] = sim.Run(sim.Options{
				Config:         cfg,
				Strategy:       strategy,
				Workload:       profile,
				Scenario:       scn,
				Duration:       *duration,
				Seed:           repSeed,
				SampleInterval: *duration / 50,
				Autonomy:       auto,
				Timeline:       sink,
			})
		}()
	}
	wg.Wait()
	if err := stopProfile(); err != nil {
		fatal("%v", err)
	}
	for _, err := range errs {
		if err != nil {
			fatal("%v", err)
		}
	}

	res := results[0]
	if *repeats > 1 {
		fmt.Printf("repetitions       %d (seeds %d..%d, %d workers)\n",
			*repeats, *seed, *seed+uint64(*repeats-1), *workers)
		var resp, p95, loss float64
		for r, rr := range results {
			fmt.Printf("  run %-3d seed %-6d resp mean %.2fs p95 %.2fs  prov departures %.0f%%\n",
				r, rr.Seed, rr.MeanResponseTime, rr.ResponseHistogram.Quantile(0.95),
				100*rr.ProviderDepartureRate())
			resp += rr.MeanResponseTime
			p95 += rr.ResponseHistogram.Quantile(0.95)
			loss += 100 * rr.ProviderDepartureRate()
		}
		n := float64(*repeats)
		fmt.Printf("  average          resp mean %.2fs p95 %.2fs  prov departures %.0f%%\n",
			resp/n, p95/n, loss/n)
		fmt.Printf("first repetition follows:\n")
	}

	fmt.Printf("method            %s\n", res.Method)
	if scn != nil {
		fmt.Printf("scenario          %s (%d load knots, %d waves): %s\n",
			scn.Name, loadKnots(scn), len(scn.Waves), scn.Description)
	}
	fmt.Printf("duration          %.0f sim-seconds (seed %d)\n", res.Duration, res.Seed)
	fmt.Printf("population        %d consumers, %d providers\n", res.Consumers, res.Providers)
	if pop.Classes > 1 || cfg.Heterogeneous() || pop.ClassSkew > 0 {
		fmt.Printf("capabilities      %d classes, selectivity %.2f, class skew %.2f\n",
			max(pop.Classes, 2), pop.Selectivity, pop.ClassSkew)
	}
	fmt.Printf("queries           issued %d, completed %d, dropped %d\n",
		res.IssuedQueries, res.CompletedQueries, res.DroppedQueries)
	fmt.Printf("response time     mean %.2fs, p50 %.2fs, p95 %.2fs, p99 %.2fs, max %.2fs\n",
		res.MeanResponseTime,
		res.ResponseHistogram.Quantile(0.5),
		res.ResponseHistogram.Quantile(0.95),
		res.ResponseHistogram.Quantile(0.99),
		res.MaxResponseTime)
	f := res.Final
	fmt.Printf("provider δs       intentions µ=%.3f f=%.3f σ=%.3f | preferences µ=%.3f\n",
		f.ProvSatIntention.Mean, f.ProvSatIntention.Fairness, f.ProvSatIntention.Balance,
		f.ProvSatPreference.Mean)
	fmt.Printf("provider δas      preferences µ=%.3f\n", f.ProvAllocSatPreference.Mean)
	fmt.Printf("consumer δs       µ=%.3f f=%.3f | δas µ=%.3f\n",
		f.ConsSat.Mean, f.ConsSat.Fairness, f.ConsAllocSat.Mean)
	fmt.Printf("utilization       µ=%.3f f=%.3f σ=%.3f\n",
		f.Utilization.Mean, f.Utilization.Fairness, f.Utilization.Balance)
	fmt.Printf("alive             %d/%d providers, %d/%d consumers\n",
		f.AliveProviders, res.Providers, f.AliveConsumers, res.Consumers)

	if len(res.ProviderDepartures) > 0 || len(res.ConsumerDepartures) > 0 {
		reasons := map[model.DepartureReason]int{}
		for _, d := range res.ProviderDepartures {
			reasons[d.Reason]++
		}
		fmt.Printf("departures        providers %.0f%% (", 100*res.ProviderDepartureRate())
		parts := []string{}
		for _, r := range model.AllDepartureReasons {
			if reasons[r] > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", r, reasons[r]))
			}
		}
		fmt.Printf("%s), consumers %.0f%%\n", strings.Join(parts, ", "), 100*res.ConsumerDepartureRate())
	}
	if len(res.ProviderJoins) > 0 {
		fmt.Printf("rejoins           %d providers re-registered by rejoin waves\n", len(res.ProviderJoins))
	}

	if *tlPath != "" {
		for r := 0; r < *repeats; r++ {
			fmt.Printf("wrote %s\n", timeline.RepetitionPath(*tlPath, r, *repeats))
		}
	}
}

// loadKnots counts the scenario's load-curve knots (0 without a curve).
func loadKnots(s *scenario.Scenario) int {
	if s.Load == nil {
		return 0
	}
	return len(s.Load.Knots)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlb-sim: "+format+"\n", args...)
	os.Exit(1)
}
