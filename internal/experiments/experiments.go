// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is registered under the paper's
// artifact ID (fig2 … fig6, table1, table3) and produces charts/tables that
// cmd/sqlb-experiments renders as text and CSV. Simulation bundles are
// memoized inside a Lab so that the eight Figure-4 time-series panels share
// one set of runs, and Figures 5(b), 5(c), 6 and Table 3 share the
// full-autonomy workload sweep.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/sim"
	"sqlb/internal/stats"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

// Config scales the experiment suite. The paper's full scale (200/400
// participants, 10 000 s, 10 repetitions) is Config{Model:
// model.DefaultConfig(), Duration: 10000, SweepDuration: 10000, Repeats:
// 10}; the defaults run the same shapes at laptop cost.
type Config struct {
	// Model is the population every run builds: Table 2 scaled
	// (model.Config.Scale), and with any heterogeneous workload set
	// (WithClasses, CapabilitySelectivity, ClassSkew). A model with no
	// providers takes Table 2 at scale 0.25 (50 consumers, 100
	// providers), the default.
	Model model.Config
	// Duration is the horizon of the Figure 4(a)-(h) ramp runs. Default
	// 2500 s (paper: 10 000 s).
	Duration float64
	// SweepDuration is the horizon of the per-workload runs (Figures
	// 4(i), 5, 6, Table 3). Default 5000 s — long enough for the
	// departure cascades to play out.
	SweepDuration float64
	// Repeats is the number of repetitions averaged (paper: 10).
	// Default 2.
	Repeats int
	// BaseSeed seeds the repetition seeds. Default 1.
	BaseSeed uint64
	// SampleInterval is the Figure 4 sampling cadence. Default
	// Duration/50.
	SampleInterval float64
	// Workloads are the swept workload fractions. Default 0.2 … 1.0 in
	// steps of 0.2.
	Workloads []float64
	// Workers bounds how many simulations run concurrently. Repetitions
	// and sweep points fan out over this budget; every run's RNG stream is
	// derived from BaseSeed alone, so any Workers value produces
	// byte-identical tables and figures. Default runtime.GOMAXPROCS(0);
	// 1 recovers fully serial execution.
	Workers int

	// Selectivities are the capability selectivities swept by the
	// ext-selectivity experiment. Default 0.125, 0.25, 0.5, 0.75, 1.0 —
	// exact multiples of 1/8 so each point maps to a distinct
	// classes-advertised count under the sweep's 8 classes (a provider
	// advertises max(1, round(s·classes)) classes, so finer-grained
	// values can round to the same effective configuration).
	Selectivities []float64
	// Scenarios are the scenario names (presets or file paths) swept by the
	// ext-scenarios experiment. Default: every preset in the
	// internal/scenario library.
	Scenarios []string

	// Timeline, when non-nil, is called once per simulation run with the
	// run's identity (e.g. "ramp/SQLB/rep0", "full-autonomy/SQLB/w80/rep1",
	// "ext-omega/fixed ω=0.5/rep0", "ext-selectivity/SQLB/s0.25/rep0" or
	// "ext-scenarios/diurnal/SQLB/rep0") and returns the timeline sink that
	// run streams its snapshots to — nil skips the run. The lab closes
	// each returned sink after its run. Seeding is untouched by the hook,
	// so results remain byte-identical with or without it, at any Workers
	// value.
	Timeline func(runID string) timeline.Sink
}

// DefaultConfig returns the laptop-scale defaults.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Model.Providers == 0 {
		c.Model = model.DefaultConfig().Scale(0.25)
	}
	if c.Duration <= 0 {
		c.Duration = 2500
	}
	if c.SweepDuration <= 0 {
		c.SweepDuration = 5000
	}
	if c.Repeats <= 0 {
		c.Repeats = 2
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = c.Duration / 50
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []float64{0.125, 0.25, 0.5, 0.75, 1.0}
	}
	return c
}

// Result is the output of one experiment.
type Result struct {
	ID     string
	Title  string
	Charts []*stats.Chart
	Tables []*stats.Table
	Notes  []string
}

// Spec describes one registered experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(*Lab) (*Result, error)
}

// Registry lists every experiment in paper order.
var Registry = []Spec{
	{"table1", "Motivating eWine scenario (Table 1)", runTable1},
	{"fig2", "Provider intention surface at δs = 0.5 (Figure 2)", runFig2},
	{"fig3", "ω surface over consumer/provider satisfaction (Figure 3)", runFig3},
	{"fig4a", "Provider satisfaction mean, intention-based (Figure 4a)", figure4("fig4a")},
	{"fig4b", "Provider satisfaction mean, preference-based (Figure 4b)", figure4("fig4b")},
	{"fig4c", "Provider allocation-satisfaction mean, preference-based (Figure 4c)", figure4("fig4c")},
	{"fig4d", "Provider satisfaction fairness (Figure 4d)", figure4("fig4d")},
	{"fig4e", "Consumer allocation-satisfaction mean (Figure 4e)", figure4("fig4e")},
	{"fig4f", "Consumer satisfaction fairness (Figure 4f)", figure4("fig4f")},
	{"fig4g", "Query load mean (Figure 4g)", figure4("fig4g")},
	{"fig4h", "Query load fairness (Figure 4h)", figure4("fig4h")},
	{"fig4i", "Response time vs workload, captive (Figure 4i)", sweepFigure("fig4i",
		"Response times, captive participants", "response time (seconds)", sweepCaptive, responseTime,
		"Capacity based < SQLB (≈1.4×) < Mariposa-like (≈3×)")},
	{"fig5a", "Response time vs workload, departures by dissatisfaction/starvation (Figure 5a)", sweepFigure("fig5a",
		"Response times, departures by dissatisfaction or starvation", "response time (seconds)", sweepDissatStarve, responseTime,
		"SQLB best at every workload; Capacity based beats Mariposa-like")},
	{"fig5b", "Response time vs workload, full autonomy (Figure 5b)", sweepFigure("fig5b",
		"Response times, full autonomy", "response time (seconds)", sweepFullAutonomy, responseTime,
		"Capacity based collapses (≈3.5× degradation); SQLB and Mariposa-like degrade ≈1.4×")},
	{"fig5c", "Provider departures vs workload (Figure 5c)", sweepFigure("fig5c",
		"Provider departures, full autonomy", "departures (% of providers)", sweepFullAutonomy, providerDepartures,
		"baselines lose almost all providers; SQLB ≈28% on average")},
	{"table3", "Provider departure reasons at 80% workload (Table 3)", runTable3},
	{"fig6", "Consumer departures vs workload (Figure 6)", sweepFigure("fig6",
		"Consumer departures by dissatisfaction", "departures (% of consumers)", sweepFullAutonomy, consumerDepartures,
		"SQLB loses no consumers; baselines lose >20%")},
}

// Find returns the spec with the given ID.
func Find(id string) (Spec, bool) {
	for _, s := range Registry {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// Lab owns the memoized simulation bundles for one configuration. All of
// its methods are safe for concurrent use; simulations fan out over a
// bounded worker budget (Config.Workers) and remain byte-for-byte
// deterministic because every run's seed depends only on BaseSeed and the
// run's identity, never on scheduling order.
type Lab struct {
	cfg Config
	sem chan struct{} // bounds the number of concurrently running simulations

	mu    sync.Mutex
	cells map[string]func() ([]*sim.Result, error) // memo key → repeats bundle
}

// NewLab returns a lab for the configuration (defaults applied).
func NewLab(cfg Config) *Lab {
	cfg = cfg.withDefaults()
	return &Lab{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		cells: map[string]func() ([]*sim.Result, error){},
	}
}

// Config returns the lab's effective configuration.
func (l *Lab) Config() Config { return l.cfg }

// Run executes one experiment by ID.
func (l *Lab) Run(id string) (*Result, error) {
	spec, ok := Find(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return spec.Run(l)
}

// RunAll executes every registered experiment in order.
func (l *Lab) RunAll() ([]*Result, error) {
	out := make([]*Result, 0, len(Registry))
	for _, spec := range Registry {
		r, err := spec.Run(l)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", spec.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// methods returns fresh strategy instances in the paper's comparison order.
func methods() []allocator.Allocator {
	return []allocator.Allocator{
		allocator.NewSQLB(),
		allocator.NewMariposaLike(),
		allocator.NewCapacityBased(),
	}
}

// simulate builds and runs one simulation, the one way every experiment
// runs one (sim.Run). It streams the run's timeline to the sink
// Config.Timeline hands out for runID. A run that sets no SampleInterval
// samples every Duration/50, so its timeline has as many rows as a ramp's;
// sampling moves no bit of the Result but Final's since-last-sample
// response window.
func (l *Lab) simulate(runID string, opts sim.Options) (*sim.Result, error) {
	if opts.SampleInterval == 0 {
		opts.SampleInterval = opts.Duration / 50
	}
	if l.cfg.Timeline != nil {
		opts.Timeline = l.cfg.Timeline(runID)
	}
	res, err := sim.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", runID, err)
	}
	return res, nil
}

// seedFor derives a deterministic per-run seed.
func (l *Lab) seedFor(kind string, method string, workloadPct int, repeat int) uint64 {
	h := l.cfg.BaseSeed
	for _, s := range []string{kind, method} {
		for _, ch := range s {
			h = h*131 + uint64(ch)
		}
	}
	return h*1000003 + uint64(workloadPct)*10007 + uint64(repeat)*101
}

// bundle runs (or returns memoized) the Repeats repetitions of one
// configuration, memoized under key: repetition rep runs opts(rep) as run
// runID/rep<rep>. The bundle runs exactly once even when several
// experiments (or warm goroutines) ask for it at once; the others wait for
// it and read the settled result. Repetitions fan out over the worker
// budget; rs[rep] is written by repetition index, so the bundle is
// identical at any Workers value.
func (l *Lab) bundle(key, runID string, opts func(rep int) sim.Options) ([]*sim.Result, error) {
	l.mu.Lock()
	run, ok := l.cells[key]
	if !ok {
		run = sync.OnceValues(func() ([]*sim.Result, error) {
			rs := make([]*sim.Result, l.cfg.Repeats)
			err := l.fanOut(l.cfg.Repeats, func(rep int) (err error) {
				rs[rep], err = l.simulate(fmt.Sprintf("%s/rep%d", runID, rep), opts(rep))
				return err
			})
			return rs, err
		})
		l.cells[key] = run
	}
	l.mu.Unlock()
	return run()
}

// rampResults runs (or returns memoized) Figure 4 ramp simulations for one
// method: workload 30% → 100% over the duration, captive participants.
func (l *Lab) rampResults(method allocator.Allocator) ([]*sim.Result, error) {
	return l.bundle(method.Name(), "ramp/"+method.Name(), func(rep int) sim.Options {
		return sim.Options{
			Config:         l.cfg.Model,
			Strategy:       method,
			Workload:       workload.Ramp{From: 0.3, To: 1.0, Duration: l.cfg.Duration},
			Duration:       l.cfg.Duration,
			Seed:           l.seedFor("ramp", method.Name(), 0, rep),
			SampleInterval: l.cfg.SampleInterval,
		}
	})
}
