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
	"sort"
	"sync"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/sim"
	"sqlb/internal/stats"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

// Config scales the experiment suite. The paper's full scale (200/400
// participants, 10 000 s, 10 repetitions) is Config{Scale: 1, Duration:
// 10000, Repeats: 10}; the defaults run the same shapes at laptop cost.
type Config struct {
	// Scale multiplies the Table 2 population (see model.Config.Scale).
	// Default 0.25 (50 consumers, 100 providers).
	Scale float64
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

	// Classes overrides the workload's query-class count (model.Config.
	// WithClasses); 0 keeps the paper's two classes (130/150 units).
	Classes int
	// Selectivity sets model.Config.CapabilitySelectivity for every run:
	// s ∈ (0,1) makes providers advertise capability subsets. 0 (default)
	// keeps the paper's all-capable providers.
	Selectivity float64
	// ClassSkew sets model.Config.ClassSkew (Zipf-like class popularity);
	// 0 keeps the uniform mix.
	ClassSkew float64
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
	if c.Scale <= 0 {
		c.Scale = 0.25
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
	{"fig4i", "Response time vs workload, captive (Figure 4i)", runFig4i},
	{"fig5a", "Response time vs workload, departures by dissatisfaction/starvation (Figure 5a)", runFig5a},
	{"fig5b", "Response time vs workload, full autonomy (Figure 5b)", runFig5b},
	{"fig5c", "Provider departures vs workload (Figure 5c)", runFig5c},
	{"table3", "Provider departure reasons at 80% workload (Table 3)", runTable3},
	{"fig6", "Consumer departures vs workload (Figure 6)", runFig6},
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

// sweepRun bundles one constant-workload run with its population's class
// totals (needed by the Table 3 per-class percentages).
type sweepRun struct {
	Res    *sim.Result
	Totals map[sim.ClassDimension][3]int
}

// rampCell and sweepCell memoize one simulation bundle. The sync.Once
// guarantees the bundle's repetitions run exactly once even when several
// experiments (or prewarm goroutines) request it concurrently; everyone
// else blocks on the Do and reads the settled result.
type rampCell struct {
	once sync.Once
	rs   []*sim.Result
	err  error
}

type sweepCell struct {
	once sync.Once
	rs   []sweepRun
	err  error
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
	ramps map[string]*rampCell  // method → repeats bundle
	sweep map[string]*sweepCell // kind/method/workload → repeats bundle
}

// NewLab returns a lab for the configuration (defaults applied).
func NewLab(cfg Config) *Lab {
	cfg = cfg.withDefaults()
	return &Lab{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.Workers),
		ramps: map[string]*rampCell{},
		sweep: map[string]*sweepCell{},
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

// modelConfig returns the per-run population configuration: the Table 2
// setup at the lab's scale, with the heterogeneous-workload overrides
// (Classes, Selectivity, ClassSkew) applied. With the defaults it is
// byte-identical to the paper's setup.
func (l *Lab) modelConfig() model.Config {
	cfg := model.DefaultConfig().Scale(l.cfg.Scale)
	if l.cfg.Classes > 1 {
		cfg = cfg.WithClasses(l.cfg.Classes)
	}
	if l.cfg.Selectivity > 0 {
		cfg.CapabilitySelectivity = l.cfg.Selectivity
	}
	if l.cfg.ClassSkew > 0 {
		cfg.ClassSkew = l.cfg.ClassSkew
	}
	return cfg
}

// simulate builds and runs one simulation, the one way every experiment
// runs one. It streams the run's timeline to the sink Config.Timeline hands
// out for runID and closes that sink after the run, then fails on a sink
// error the engine swallowed to keep the Result deterministic, or on
// Result.Err. A run that sets no SampleInterval samples every Duration/50,
// so its timeline has as many rows as a ramp's; sampling moves no bit of the
// Result but Final's since-last-sample response window. atStart, when
// non-nil, sees the engine before its first event.
func (l *Lab) simulate(runID string, opts sim.Options, atStart func(*sim.Engine)) (*sim.Result, error) {
	if opts.SampleInterval == 0 {
		opts.SampleInterval = opts.Duration / 50
	}
	if l.cfg.Timeline != nil {
		opts.Timeline = l.cfg.Timeline(runID)
	}
	eng, err := sim.New(opts)
	if err != nil {
		if opts.Timeline != nil {
			opts.Timeline.Close()
		}
		return nil, fmt.Errorf("%s: %w", runID, err)
	}
	if atStart != nil {
		atStart(eng)
	}
	res := eng.Run()
	if opts.Timeline != nil {
		err := eng.TimelineErr()
		if cerr := opts.Timeline.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: timeline: %w", runID, err)
		}
	}
	if res.Err != nil {
		return nil, fmt.Errorf("%s: %w", runID, res.Err)
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

// rampResults runs (or returns memoized) Figure 4 ramp simulations for one
// method: workload 30% → 100% over the duration, captive participants.
// Repetitions fan out over the worker budget; rs[rep] is written by
// repetition index so the bundle is identical at any Workers value.
func (l *Lab) rampResults(method allocator.Allocator) ([]*sim.Result, error) {
	l.mu.Lock()
	cell, ok := l.ramps[method.Name()]
	if !ok {
		cell = &rampCell{}
		l.ramps[method.Name()] = cell
	}
	l.mu.Unlock()
	cell.once.Do(func() {
		rs := make([]*sim.Result, l.cfg.Repeats)
		err := l.fanOut(l.cfg.Repeats, func(rep int) (err error) {
			rs[rep], err = l.simulate(fmt.Sprintf("ramp/%s/rep%d", method.Name(), rep), sim.Options{
				Config:         l.modelConfig(),
				Strategy:       method,
				Workload:       workload.Ramp{From: 0.3, To: 1.0, Duration: l.cfg.Duration},
				Duration:       l.cfg.Duration,
				Seed:           l.seedFor("ramp", method.Name(), 0, rep),
				SampleInterval: l.cfg.SampleInterval,
			}, nil)
			return err
		})
		if err != nil {
			cell.err = err
			return
		}
		cell.rs = rs
	})
	return cell.rs, cell.err
}

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

// sweepResults runs (or returns memoized) constant-workload simulations,
// capturing each run's class totals for the Table 3 breakdowns.
// Repetitions fan out over the worker budget exactly as in rampResults.
func (l *Lab) sweepResults(kind sweepKind, method allocator.Allocator, frac float64) ([]sweepRun, error) {
	// The key carries the exact fraction (not a rounded percent) so two
	// workloads that round alike never share a bundle.
	key := fmt.Sprintf("%s/%s/%v", kind, method.Name(), frac)
	l.mu.Lock()
	cell, ok := l.sweep[key]
	if !ok {
		cell = &sweepCell{}
		l.sweep[key] = cell
	}
	l.mu.Unlock()
	cell.once.Do(func() {
		rs := make([]sweepRun, l.cfg.Repeats)
		err := l.fanOut(l.cfg.Repeats, func(rep int) (err error) {
			pct := int(frac*100 + 0.5)
			totals := map[sim.ClassDimension][3]int{}
			rs[rep].Res, err = l.simulate(fmt.Sprintf("%s/%s/w%d/rep%d", kind, method.Name(), pct, rep), sim.Options{
				Config:   l.modelConfig(),
				Strategy: method,
				Workload: workload.Constant(frac),
				Duration: l.cfg.SweepDuration,
				Seed:     l.seedFor(string(kind), method.Name(), pct, rep),
				Autonomy: kind.autonomy(),
			}, func(eng *sim.Engine) {
				for _, dim := range sim.ClassDimensions {
					totals[dim] = sim.ClassTotals(eng.Population(), dim)
				}
			})
			rs[rep].Totals = totals
			return err
		})
		if err != nil {
			cell.err = err
			return
		}
		cell.rs = rs
	})
	return cell.rs, cell.err
}

// sweepChart builds a workload-sweep chart from a per-run metric. All
// (method, workload) bundles are prewarmed concurrently; the assembly
// below then reads settled memo cells in a fixed order, so the chart is
// identical at any Workers value.
func (l *Lab) sweepChart(id, title, ylabel string, kind sweepKind, metric func(*sim.Result) float64) (*Result, error) {
	chart := &stats.Chart{ID: id, Title: title, XLabel: "workload (% of total system capacity)", YLabel: ylabel}
	fracs := append([]float64(nil), l.cfg.Workloads...)
	sort.Float64s(fracs)
	l.warmSweep(kind, methods(), fracs)
	for _, m := range methods() {
		s := stats.Series{Name: m.Name()}
		for _, frac := range fracs {
			rs, err := l.sweepResults(kind, m, frac)
			if err != nil {
				return nil, err
			}
			sum := 0.0
			for _, r := range rs {
				sum += metric(r.Res)
			}
			s.Add(frac*100, sum/float64(len(rs)))
		}
		chart.AddSeries(s)
	}
	return &Result{ID: id, Title: title, Charts: []*stats.Chart{chart}}, nil
}
