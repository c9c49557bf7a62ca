package sim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/matchmaking"
	"sqlb/internal/mediator"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/scenario"
	"sqlb/internal/workload"
)

// The mediation paths gather an unwilling provider's intention as a
// pow-free bound and compute Definition 8 only for the slots the strategy
// resolves. That is accepted on one ground: a run that resolves every slot
// before the strategy looks — what the gathering loops did before they
// deferred anything — leaves the same canonical per-query trace. traced is
// both halves of that comparison: wrapped around a strategy it records the
// trace, and with eager set it is the resolve-everything oracle.

// queryTrace is what one mediation decided and what an observer may rely on.
type queryTrace struct {
	query    uint64
	pq       []int     // provider ids, in Pq order
	selected []int     // provider ids, best first
	ci       []float64 // as the strategy left them
	gathered []float64 // PI as gathered, before the strategy ran
	pi       []float64 // PI as the strategy left it
	scores   []float64 // Definition 9 of each selected provider, from ci/pi
}

type traced struct {
	inner allocator.Allocator
	eager bool
	log   []queryTrace
	// stale counts the slots the oracle resolved to something else than
	// Provider.Intention evaluated there and then — the definition, by
	// FuzzProviderIntentionMemo. The two agree wherever nothing moves a
	// provider between gathering and allocation: everywhere but inside a
	// MediateBatch turn that applies its allocations, where PI is the
	// turn's snapshot by contract.
	stale int
}

func (s *traced) Name() string { return s.inner.Name() }

func (s *traced) Allocate(req *allocator.Request) []int {
	tr := queryTrace{query: req.Query.ID, gathered: append([]float64(nil), req.PI...)}
	if s.eager {
		req.ResolvePI()
		for i, p := range req.Pq {
			if math.Float64bits(req.PI[i]) != math.Float64bits(p.Intention(req.Query.Class, req.Now)) {
				s.stale++
			}
		}
	}
	selected := s.inner.Allocate(req)
	for _, p := range req.Pq {
		tr.pq = append(tr.pq, p.ID)
	}
	tr.ci = append(tr.ci, req.CI...)
	tr.pi = append(tr.pi, req.PI...)
	for _, idx := range selected {
		tr.selected = append(tr.selected, req.Pq[idx].ID)
		omega := core.Omega(req.ConsumerSat, req.ProviderSat[idx])
		tr.scores = append(tr.scores, core.Score(req.PI[idx], req.CI[idx], omega, 0))
	}
	s.log = append(s.log, tr)
	return selected
}

// lazyCounts is what a lazy trace says about the mechanism itself.
type lazyCounts struct{ candidates, deferred, resolved int }

func (c *lazyCounts) add(o lazyCounts) {
	c.candidates += o.candidates
	c.deferred += o.deferred
	c.resolved += o.resolved
}

// compareTraces holds a lazy run's trace against the oracle's: the same
// queries over the same Pq, the same selection, CI bit for bit, and PI equal
// under Allocation's contract — exact bits, or an upper bound ≤ −1 of them.
// consultsPI says the strategy ranks on intentions, in which case every
// selected provider's PI must be exact and its score the oracle's.
func compareTraces(t *testing.T, lazy, eager []queryTrace, consultsPI bool) lazyCounts {
	t.Helper()
	var n lazyCounts
	if len(lazy) != len(eager) {
		t.Fatalf("lazy run mediated %d queries, oracle %d", len(lazy), len(eager))
	}
	bits := math.Float64bits
	for k, l := range lazy {
		e := eager[k]
		if l.query != e.query || !reflect.DeepEqual(l.pq, e.pq) || !reflect.DeepEqual(l.selected, e.selected) {
			t.Fatalf("mediation %d: lazy query %d Pq %v selected %v; oracle query %d Pq %v selected %v",
				k, l.query, l.pq, l.selected, e.query, e.pq, e.selected)
		}
		for i := range l.pq {
			if bits(l.ci[i]) != bits(e.ci[i]) {
				t.Fatalf("mediation %d candidate %d: CI %v, oracle %v", k, i, l.ci[i], e.ci[i])
			}
			exact := e.pi[i]
			if bits(l.gathered[i]) != bits(exact) {
				n.deferred++
				if bits(l.pi[i]) == bits(exact) {
					n.resolved++
				}
			}
			if bits(l.pi[i]) != bits(exact) && !(exact <= l.pi[i] && l.pi[i] <= -1) {
				t.Fatalf("mediation %d candidate %d: PI %v is neither the exact %v nor a bound ≤ −1 of it", k, i, l.pi[i], exact)
			}
		}
		n.candidates += len(l.pq)
		if !consultsPI {
			continue
		}
		for j := range l.selected {
			if bits(l.scores[j]) != bits(e.scores[j]) {
				t.Fatalf("mediation %d: selected p%d scores %v, oracle %v", k, l.selected[j], l.scores[j], e.scores[j])
			}
		}
	}
	return n
}

// samePopulations compares everything the mediations wrote: every byte of
// every satisfaction window, the queues, and who is still registered.
func samePopulations(t *testing.T, lazy, eager *model.Population) {
	t.Helper()
	for i, l := range lazy.Providers {
		e := eager.Providers[i]
		if !reflect.DeepEqual(l.Public, e.Public) || !reflect.DeepEqual(l.Private, e.Private) {
			t.Fatalf("provider %d: satisfaction windows differ from the oracle's", i)
		}
		if l.BusyUntil != e.BusyUntil || l.QueriesPerformed != e.QueriesPerformed || l.Alive != e.Alive ||
			l.SmoothSat != e.SmoothSat || l.SmoothUt != e.SmoothUt {
			t.Fatalf("provider %d: queue or self-assessment differs from the oracle's", i)
		}
	}
	for i, l := range lazy.Consumers {
		if !reflect.DeepEqual(l.Tracker, eager.Consumers[i].Tracker) {
			t.Fatalf("consumer %d: satisfaction window differs from the oracle's", i)
		}
	}
}

// lazyStrategies are the six methods; consultsPI marks those that read PI.
var lazyStrategies = []struct {
	name       string
	build      func() allocator.Allocator
	consultsPI bool
}{
	{"SQLB", func() allocator.Allocator { return allocator.NewSQLB() }, true},
	{"KnBest", func() allocator.Allocator { return allocator.NewKnBest() }, true},
	{"SQLB-econ", func() allocator.Allocator { return allocator.NewSQLBEconomic() }, true},
	{"Capacity", func() allocator.Allocator { return allocator.NewCapacityBased() }, false},
	{"Mariposa", func() allocator.Allocator { return allocator.NewMariposaLike() }, false},
	{"Random", func() allocator.Allocator { return allocator.NewRandom(5) }, false},
}

// lazyPopulations are the three shapes: the paper's population, specialists
// over 128 classes with churn on the match index, and ε = 0.3, where
// negative-branch intentions stay above −1 and cannot be deferred. Windows
// are short enough to wrap within a run.
var lazyPopulations = []struct {
	name  string
	cfg   func() model.Config
	churn bool
}{
	{"paper", func() model.Config { return smallWindows(model.DefaultConfig().Scale(0.15)) }, false},
	{"specialists", func() model.Config {
		cfg := model.DefaultConfig().WithClasses(128)
		cfg.Consumers, cfg.Providers = 12, 256
		cfg.CapabilitySelectivity = 0.03 // four classes each, |Pq| ≈ 8
		return smallWindows(cfg)
	}, true},
	{"epsilon0.3", func() model.Config {
		cfg := model.DefaultConfig().Scale(0.15)
		cfg.Epsilon = 0.3
		return smallWindows(cfg)
	}, false},
}

func smallWindows(cfg model.Config) model.Config {
	cfg.ConsumerK, cfg.ProviderK = 20, 50
	return cfg
}

// scriptedRun drives one of the three direct entrances over a same-seed
// population with a scripted stream: 100 % offered load so that most
// providers are unwilling most of the time, re-assessments that move δs off
// its initial 0.5, q.n cycling through 1, 4 and |Pq|, and, when asked,
// outages and rejoins on the index.
func scriptedRun(entrance string, cfg model.Config, churn bool, strategy *traced) *model.Population {
	pop := model.NewPopulation(cfg, randx.New(77), 0)
	index := matchmaking.BuildIndex(pop)
	gen := workload.NewGenerator(cfg.QueryClasses, cfg.QueryN, randx.New(78))
	clock := 0.0
	med := mediator.New(strategy)
	med.Match = index
	srv := mediator.NewServer(strategy, pop, 0, func() float64 { return clock })
	srv.SetMatchmaker(index)
	srv.SetApply(true)

	capacity, units := 0.0, 0.0
	for _, p := range pop.Providers {
		capacity += p.Capacity
	}
	for _, c := range cfg.QueryClasses {
		units += c.Units / float64(len(cfg.QueryClasses))
	}
	step := units / capacity // one query per step offers 100 % of capacity
	const queries = 240
	for lo, size := 0, 1; lo < queries; lo, size = lo+size, size%5+1 {
		batch := make([]*model.Query, 0, size)
		for i := lo; i < min(lo+size, queries); i++ {
			q := gen.Next(clock, pop.Consumers[i%len(pop.Consumers)])
			q.N = [3]int{1, 4, 1 << 20}[i%3]
			batch = append(batch, q)
		}
		clock += step * float64(len(batch))
		switch entrance {
		case "Allocate":
			for _, q := range batch {
				alloc, err := med.Allocate(clock, q, pop)
				if err != nil {
					continue // a class nobody alive serves
				}
				for _, idx := range alloc.Selected {
					alloc.Pq[idx].Assign(clock, q.Units)
				}
			}
		case "Mediate":
			for _, q := range batch {
				srv.Mediate(context.Background(), q)
			}
		case "MediateBatch":
			srv.MediateBatch(context.Background(), batch)
		}
		if lo%40 < size {
			for _, p := range pop.Providers {
				p.Smooth(0.3, clock)
			}
		}
		if churn && lo%60 < size {
			for i, p := range pop.Providers {
				if i%7 == (lo/60)%7 && p.Alive {
					p.Alive = false
					index.Remove(p)
				} else if !p.Alive {
					p.Alive = true
					index.Add(p)
				}
			}
		}
	}
	return pop
}

// engineRun is the same comparison through the simulator's event loop, over
// span × 16 time units.
func engineRun(t *testing.T, span int, cfg model.Config, churn bool, strategy *traced) *model.Population {
	t.Helper()
	opts := Options{
		Config: cfg, Strategy: strategy, Workload: workload.Constant(1), Duration: 16 * float64(span), Seed: 77,
		SmoothingAlpha: 0.3, SmoothingInterval: 2,
	}
	if churn {
		opts.Scenario = &scenario.Scenario{Name: "churn", Waves: []scenario.Wave{
			{Time: 4, Kind: scenario.WaveOutage, Fraction: 0.2},
			{Time: 8, Kind: scenario.WaveRejoin, Fraction: 1},
			{Time: 12, Kind: scenario.WaveOutage, Fraction: 0.1},
		}}
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	return eng.pop
}

// TestLazyIntentionsEqualResolveEverything is the differential test: six
// strategies × three populations × four entrances, with q.n ∈ {1, 4, |Pq|}
// — cycled query by query on the scripted entrances, one run each through
// the engine, whose generator fixes q.n per run. "engine/k" runs the engine
// for k × 16 time units; the long run at q.n = 4 carries the comparison
// through more smoothing rounds and churn aftermath.
func TestLazyIntentionsEqualResolveEverything(t *testing.T) {
	type run struct {
		entrance string
		span     int // engine runs only
		qn       int // 0 cycles
	}
	runs := []run{{"Allocate", 0, 0}, {"Mediate", 0, 0}, {"MediateBatch", 0, 0},
		{"engine/1", 1, 1}, {"engine/1", 1, 4}, {"engine/1", 1, 1 << 20}, {"engine/4", 4, 4}}
	var sqlb lazyCounts
	for _, st := range lazyStrategies {
		for _, pp := range lazyPopulations {
			for _, r := range runs {
				cfg := pp.cfg()
				cfg.QueryN = r.qn
				lazy, eager := &traced{inner: st.build()}, &traced{inner: st.build(), eager: true}
				var popL, popE *model.Population
				if r.span > 0 {
					popL, popE = engineRun(t, r.span, cfg, pp.churn, lazy), engineRun(t, r.span, cfg, pp.churn, eager)
				} else {
					popL, popE = scriptedRun(r.entrance, cfg, pp.churn, lazy), scriptedRun(r.entrance, cfg, pp.churn, eager)
				}
				name := fmt.Sprintf("%s/%s/%s/n=%d", st.name, pp.name, r.entrance, r.qn)
				if len(lazy.log) == 0 {
					t.Fatalf("%s: nothing mediated", name)
				}
				t.Run(name, func(t *testing.T) {
					if eager.stale != 0 && r.entrance != "MediateBatch" {
						t.Errorf("%d resolved intentions are not Provider.Intention's", eager.stale)
					}
					n := compareTraces(t, lazy.log, eager.log, st.consultsPI)
					samePopulations(t, popL, popE)
					if st.name == "SQLB" && pp.name != "epsilon0.3" {
						sqlb.add(n)
					}
					if !st.consultsPI && n.resolved != 0 {
						t.Errorf("%d intentions resolved for a strategy that reads none", n.resolved)
					}
				})
			}
		}
	}
	// The comparison is vacuous unless the mechanism ran: most of SQLB's
	// candidates deferred, some of them asked for exactly.
	if sqlb.deferred*2 < sqlb.candidates || sqlb.resolved == 0 || sqlb.resolved == sqlb.deferred {
		t.Errorf("SQLB over the ε = 1 populations: %d candidates, %d deferred, %d resolved", sqlb.candidates, sqlb.deferred, sqlb.resolved)
	}
}

// lazyProbe counts, for every candidate of every mediation, what the
// gathering loop deferred and what the strategy then resolved. It reads
// only what any strategy may: a slot was deferred when it does not hold
// Provider.Intention's bits on entry, resolved when it does on return. It
// also counts the exact Definition 9 scores core.RankTop computed: it
// poisons the score vector (Scratch.F2) before the call, and a slot that
// no longer holds the poison was scored.
type lazyProbe struct {
	allocator.Allocator
	exact []float64
	lazyCounts
	mediations, scored int
}

// scorePoison is a NaN payload no Definition 9 evaluation produces.
var scorePoison = math.Float64frombits(0x7ff8_dead_beef_0001)

func (s *lazyProbe) Allocate(req *allocator.Request) []int {
	if req.Scratch == nil {
		req.Scratch = new(core.Scratch)
	}
	scores := req.Scratch.F2(len(req.Pq))
	for i := range scores {
		scores[i] = scorePoison
	}
	s.exact = s.exact[:0]
	for i, p := range req.Pq {
		s.exact = append(s.exact, p.Intention(req.Query.Class, req.Now))
		if math.Float64bits(req.PI[i]) != math.Float64bits(s.exact[i]) {
			s.deferred++
			s.exact[i] = math.NaN() // equals nothing: marks the slot
		}
	}
	s.candidates += len(req.Pq)
	s.mediations++
	selected := s.Allocator.Allocate(req)
	for _, v := range scores {
		if math.Float64bits(v) != math.Float64bits(scorePoison) {
			s.scored++
		}
	}
	for i, p := range req.Pq {
		if s.exact[i] != s.exact[i] && math.Float64bits(req.PI[i]) == math.Float64bits(p.Intention(req.Query.Class, req.Now)) {
			s.resolved++
		}
	}
	return selected
}

// BenchmarkLazyIntentionCounts is the counting probe EXPERIMENTS.md §13
// and §15 quote: the runs of `sqlb-sim -scale 1 -duration 300 -workload
// 0.8 -seed 1`, of the benchmark's sim-narrow shape and of `sqlb-sim
// -scale 1 -duration 150 -workload 1.3 -seed 1`, reporting how many
// Definition 8 evaluations stood as bounds, how many of those were asked
// for exactly, and how many exact Definition 9 scores a mediation cost.
//
//	go test -run '^$' -bench LazyIntentionCounts -benchtime 1x ./internal/sim
func BenchmarkLazyIntentionCounts(b *testing.B) {
	narrow := model.DefaultConfig().WithClasses(128)
	narrow.Consumers, narrow.Providers, narrow.ProviderK = 1000, 2000, 100
	narrow.CapabilitySelectivity = 1.0 / 128
	staged, _ := scenario.Preset("staged-churn")
	for _, shape := range []struct {
		name string
		load float64
		opts Options
	}{
		{"paper", 0.8, Options{Config: model.DefaultConfig(), Duration: 300, Seed: 1}},
		{"narrow", 0.8, Options{Config: narrow, Duration: 600, Seed: 1, Scenario: staged}},
		{"overload", 1.3, Options{Config: model.DefaultConfig(), Duration: 150, Seed: 1}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				probe := &lazyProbe{Allocator: allocator.NewSQLB()}
				opts := shape.opts
				opts.Strategy, opts.Workload, opts.SampleInterval = probe, workload.Constant(shape.load), opts.Duration/50
				eng, err := New(opts)
				if err != nil {
					b.Fatal(err)
				}
				if res := eng.Run(); res.Err != nil {
					b.Fatal(res.Err)
				}
				b.ReportMetric(float64(probe.candidates), "evaluations")
				b.ReportMetric(float64(probe.deferred), "deferred")
				b.ReportMetric(float64(probe.resolved), "resolved")
				b.ReportMetric(float64(probe.scored)/float64(probe.mediations), "scores/mediation")
			}
		})
	}
}
