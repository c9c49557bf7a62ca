// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation (Section 6), micro-benchmarks of the hot paths, and ablation
// benchmarks for the design choices called out in DESIGN.md §4.
//
// The per-figure benches run reduced-scale simulations (the shapes are
// scale-stable; see DESIGN.md §2.8) and report the headline shape numbers
// via b.ReportMetric so a regression in *behaviour*, not just speed, is
// visible in benchmark diffs. cmd/sqlb-experiments regenerates the full
// artifacts.
package sqlb_test

import (
	"context"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"sqlb"
	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/experiments"
	"sqlb/internal/intention"
	"sqlb/internal/matchmaking"
	"sqlb/internal/metrics"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/satisfaction"
	"sqlb/internal/sim"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

// benchConfig is the reduced scale used by the per-figure benches.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:          0.05, // 10 consumers, 20 providers
		Duration:       400,
		SweepDuration:  1600, // past the 300 s grace + assessment convergence, so departures register
		Repeats:        1,
		BaseSeed:       5,
		SampleInterval: 50,
		Workloads:      []float64{0.4, 0.8},
	}
}

// runExperiment executes one experiment per iteration on a fresh lab.
func runExperiment(b *testing.B, id string) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchConfig())
		var err error
		res, err = lab.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	return res
}

// lastY returns the last y of the named series in the result's only chart.
func lastY(b *testing.B, res *experiments.Result, series string) float64 {
	b.Helper()
	for _, s := range res.Charts[0].Series {
		if s.Name == series && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].Y
		}
	}
	b.Fatalf("series %q not found", series)
	return 0
}

func BenchmarkTable1Scenario(b *testing.B) {
	res := runExperiment(b, "table1")
	if res.Tables[0].Rows[4][6] != "yes" {
		b.Fatal("table1: p5 not selected")
	}
}

func BenchmarkFig2Surface(b *testing.B) {
	res := runExperiment(b, "fig2")
	b.ReportMetric(float64(len(res.Tables[0].Rows)), "grid-points")
}

func BenchmarkFig3OmegaSurface(b *testing.B) {
	res := runExperiment(b, "fig3")
	b.ReportMetric(float64(len(res.Tables[0].Rows)), "grid-points")
}

func benchFig4Panel(b *testing.B, id, metric string) {
	res := runExperiment(b, id)
	b.ReportMetric(lastY(b, res, "SQLB"), "sqlb-"+metric)
	b.ReportMetric(lastY(b, res, "Capacity based"), "capacity-"+metric)
}

func BenchmarkFig4aProviderSatisfaction(b *testing.B) {
	benchFig4Panel(b, "fig4a", "final-sat")
}

func BenchmarkFig4bProviderSatisfactionPrefs(b *testing.B) {
	benchFig4Panel(b, "fig4b", "final-sat")
}

func BenchmarkFig4cProviderAllocSatisfaction(b *testing.B) {
	benchFig4Panel(b, "fig4c", "final-allocsat")
}

func BenchmarkFig4dProviderSatFairness(b *testing.B) {
	benchFig4Panel(b, "fig4d", "final-fairness")
}

func BenchmarkFig4eConsumerAllocSatisfaction(b *testing.B) {
	res := runExperiment(b, "fig4e")
	// The paper's claim: SQLB satisfies consumers (δas > 1), baselines are
	// neutral (≈1).
	b.ReportMetric(lastY(b, res, "SQLB"), "sqlb-consumer-allocsat")
	b.ReportMetric(lastY(b, res, "Capacity based"), "capacity-consumer-allocsat")
}

func BenchmarkFig4fConsumerSatFairness(b *testing.B) {
	benchFig4Panel(b, "fig4f", "final-fairness")
}

func BenchmarkFig4gUtilizationMean(b *testing.B) {
	benchFig4Panel(b, "fig4g", "final-util")
}

func BenchmarkFig4hUtilizationFairness(b *testing.B) {
	benchFig4Panel(b, "fig4h", "final-fairness")
}

func BenchmarkFig4iResponseTimeCaptive(b *testing.B) {
	res := runExperiment(b, "fig4i")
	sqlbRT := lastY(b, res, "SQLB")
	capRT := lastY(b, res, "Capacity based")
	marRT := lastY(b, res, "Mariposa-like")
	if capRT > 0 {
		b.ReportMetric(sqlbRT/capRT, "sqlb/capacity-ratio")
		b.ReportMetric(marRT/capRT, "mariposa/capacity-ratio")
	}
}

func BenchmarkFig5aResponseTimeAutonomy(b *testing.B) {
	res := runExperiment(b, "fig5a")
	b.ReportMetric(lastY(b, res, "SQLB"), "sqlb-resp-s")
	b.ReportMetric(lastY(b, res, "Capacity based"), "capacity-resp-s")
}

func BenchmarkFig5bResponseTimeFullAutonomy(b *testing.B) {
	res := runExperiment(b, "fig5b")
	b.ReportMetric(lastY(b, res, "SQLB"), "sqlb-resp-s")
	b.ReportMetric(lastY(b, res, "Capacity based"), "capacity-resp-s")
}

func BenchmarkFig5cProviderDepartures(b *testing.B) {
	res := runExperiment(b, "fig5c")
	b.ReportMetric(lastY(b, res, "SQLB"), "sqlb-departures-pct")
	b.ReportMetric(lastY(b, res, "Capacity based"), "capacity-departures-pct")
}

func BenchmarkTable3DepartureReasons(b *testing.B) {
	res := runExperiment(b, "table3")
	b.ReportMetric(float64(len(res.Tables[0].Rows)), "rows")
}

func BenchmarkFig6ConsumerDepartures(b *testing.B) {
	res := runExperiment(b, "fig6")
	b.ReportMetric(lastY(b, res, "SQLB"), "sqlb-departures-pct")
	b.ReportMetric(lastY(b, res, "Mariposa-like"), "mariposa-departures-pct")
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkScore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Score(0.7, 0.4, 0.6, 1)
	}
}

func BenchmarkScoreNegativeBranch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Score(-0.7, 0.4, 0.6, 1)
	}
}

func BenchmarkProviderIntention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		intention.Provider(0.6, 0.8, 0.5, 1)
	}
}

// intentionSink keeps the compiler from discarding the benchmarked calls.
var intentionSink float64

// benchIntentionProvider is one paper-scale provider with work queued far
// past the benchmark's clock, so its load is the backlog term and moves
// with every clock reading.
func benchIntentionProvider() *model.Provider {
	p := sqlb.NewPopulation(model.DefaultConfig(), 9).Providers[0]
	p.SetPreference(0, 0.6)
	p.SmoothSat = 0.4
	p.Assign(0, 1e9)
	return p
}

// BenchmarkProviderIntentionExact is Definition 8 through the model's exact
// entrance on a moving clock: the preference factor is found, the load
// factor is one pow. This is what a resolve costs, less the load reading.
func BenchmarkProviderIntentionExact(b *testing.B) {
	p := benchIntentionProvider()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intentionSink = p.IntentionAt(0, p.OperationalLoad(float64(i)*1e-3))
	}
}

// BenchmarkProviderIntentionOrBound is the entrance the mediation paths
// gather through, on the same overloaded provider: the preference factor is
// found and the load factor is bounded, no pow. This is the simulator's
// common case.
func BenchmarkProviderIntentionOrBound(b *testing.B) {
	p := benchIntentionProvider()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intentionSink, _ = p.IntentionOrBound(0, float64(i)*1e-3)
	}
}

// BenchmarkProviderIntentionColdSat changes δs on every call, which empties
// the memo: both factors are computed, the cost of a re-assessment.
func BenchmarkProviderIntentionColdSat(b *testing.B) {
	p := benchIntentionProvider()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SmoothSat = 0.4 - float64(i&1)*0.1
		intentionSink = p.IntentionAt(0, p.OperationalLoad(1))
	}
}

// BenchmarkIntentionsRange400 is the Definition 8 half of the mediator's
// intention gathering on live state: per iteration the clock advances by
// one inter-arrival time at 80 % load, all 400 providers show their
// intention for the query's class — exact when willing, a bound when not —
// and the most willing one is assigned the query, so windows fill and
// backlogs build and drain.
func BenchmarkIntentionsRange400(b *testing.B) {
	cfg := model.DefaultConfig()
	pop := sqlb.NewPopulation(cfg, 9)
	dt := cfg.MeanQueryUnits() / (0.8 * pop.TotalCapacity())
	now := 0.0
	arrival := func(i int) {
		now += dt
		class := i % len(cfg.QueryClasses)
		best, bestPI := 0, math.Inf(-1)
		for j, p := range pop.Providers {
			if pi, _ := p.IntentionOrBound(class, now); pi > bestPI {
				best, bestPI = j, pi
			}
		}
		pop.Providers[best].Assign(now, cfg.QueryClasses[class].Units)
		intentionSink = bestPI
	}
	for i := 0; i < 20_000; i++ { // past the 60 s utilization window
		arrival(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrival(i)
	}
}

func BenchmarkConsumerIntention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		intention.Consumer(0.6, 0.8, 0.7, 1)
	}
}

func benchRank(b *testing.B, n int) {
	rng := randx.New(3)
	pi := make([]float64, n)
	ci := make([]float64, n)
	om := make([]float64, n)
	for i := range pi {
		pi[i] = rng.Uniform(-1, 1)
		ci[i] = rng.Uniform(-1, 1)
		om[i] = rng.Float64()
	}
	var s core.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankTop(&s, n, pi, ci, om, 1, nil)
	}
}

func BenchmarkRank100(b *testing.B) { benchRank(b, 100) }

func BenchmarkRank400(b *testing.B) { benchRank(b, 400) }

// benchRankTop measures the partial ranking of the allocation hot path:
// only the q.n best of |Pq| providers are materialized. Compare against
// BenchmarkRank400 (the full-sort ranking) for the top-n win.
func benchRankTop(b *testing.B, total, n int) {
	rng := randx.New(3)
	pi := make([]float64, total)
	ci := make([]float64, total)
	om := make([]float64, total)
	for i := range pi {
		pi[i] = rng.Uniform(-1, 1)
		ci[i] = rng.Uniform(-1, 1)
		om[i] = rng.Float64()
	}
	var s core.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RankTop(&s, n, pi, ci, om, 1, nil)
	}
}

func BenchmarkRankTop400n1(b *testing.B) { benchRankTop(b, 400, 1) }

func BenchmarkRankTop400n4(b *testing.B) { benchRankTop(b, 400, 4) }

func BenchmarkRankTop400n32(b *testing.B) { benchRankTop(b, 400, 32) }

func BenchmarkRankTop100n4(b *testing.B) { benchRankTop(b, 100, 4) }

// benchSelectTopN isolates the selection helper itself (no Definition 9
// scoring): bounded heap at n ≪ total vs the full-sort fallback at
// n = total over the same keys.
func benchSelectTopN(b *testing.B, total, n int) {
	rng := randx.New(6)
	vals := make([]float64, total)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	less := func(x, y int) bool {
		if vals[x] != vals[y] {
			return vals[x] > vals[y]
		}
		return x < y
	}
	var s core.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SelectTopN(&s, total, n, less)
	}
}

func BenchmarkSelectTopN400n4(b *testing.B) { benchSelectTopN(b, 400, 4) }

func BenchmarkSelectTopN400Full(b *testing.B) { benchSelectTopN(b, 400, 400) }

func BenchmarkFairness400(b *testing.B) {
	rng := randx.New(4)
	vs := make([]float64, 400)
	for i := range vs {
		vs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Fairness(vs)
	}
}

func BenchmarkProviderTrackerRecord(b *testing.B) {
	pt := satisfaction.NewProviderTracker(500, 0.5, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Record(0.3, i%400 == 0)
	}
}

// BenchmarkNotify400 is the result notification of one paper-scale
// mediation on its own: the population's window stream advances by the
// query's class, which is the proposal to every private window and to
// every public window that shows Rate(−1) = 0; one provider in 16 shows
// 0.3 instead (a paper-shape mediation has 5-8 % of Pq above −1); and one
// provider is marked as having performed the query in both windows. The
// metric divides by the 400 candidates the notification stands for.
func BenchmarkNotify400(b *testing.B) {
	pop := sqlb.NewPopulation(model.DefaultConfig(), 9)
	stream := pop.Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Advance(i % 2)
		for j := 0; j < len(pop.Providers); j += 16 {
			stream.Show(pop.Providers[j].Public, 0.3)
		}
		sel := pop.Providers[i%len(pop.Providers)]
		sel.Public.MarkPerformed()
		sel.Private.MarkPerformed()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pop.Providers)), "ns/cand")
}

// --- matchmaking: indexed posting-list lookup vs naive population scan ---

// matchPop builds a |P|-provider population over nClasses classes at the
// given capability selectivity.
func matchPop(b *testing.B, providers, nClasses int, selectivity float64) *sqlb.Population {
	b.Helper()
	cfg := sqlb.DefaultConfig().WithClasses(nClasses)
	cfg.Consumers = 2
	cfg.Providers = providers
	cfg.CapabilitySelectivity = selectivity
	return sqlb.NewPopulation(cfg, 7)
}

// benchMatch measures one matchmaking step per iteration, rotating the
// query class so every posting list is exercised.
func benchMatch(b *testing.B, m sqlb.Matchmaker, pop *sqlb.Population, nClasses int) {
	b.Helper()
	q := &model.Query{ID: 1, Consumer: pop.Consumers[0], Units: 130, N: 1}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		q.Class = i % nClasses
		total += len(m.Match(q, pop))
	}
	b.ReportMetric(float64(total)/float64(b.N), "Pq-size")
}

// capabilityScan is the naive sound-and-complete matchmaker: a full O(|P|)
// scan for the alive providers that advertise the class.
type capabilityScan struct{}

func (capabilityScan) Match(q *model.Query, pop *sqlb.Population) []*model.Provider {
	pq := make([]*model.Provider, 0, len(pop.Providers))
	for _, p := range pop.Providers {
		if p.Alive && p.CanServe(q.Class) {
			pq = append(pq, p)
		}
	}
	return pq
}

// BenchmarkMatchmakingScan1000 vs BenchmarkMatchmakingIndexed1000 is the
// index's perf criterion: at |P| = 1000 and 10% selectivity the indexed
// O(|Pq|) lookup must beat the naive O(|P|) predicate scan.
func BenchmarkMatchmakingScan1000(b *testing.B) {
	pop := matchPop(b, 1000, 10, 0.1)
	benchMatch(b, capabilityScan{}, pop, 10)
}

func BenchmarkMatchmakingIndexed1000(b *testing.B) {
	pop := matchPop(b, 1000, 10, 0.1)
	benchMatch(b, sqlb.BuildMatchIndex(pop), pop, 10)
}

// The homogeneous pair shows the win persists even with all-capable
// providers (no per-query alive-list rebuild).
func BenchmarkMatchmakingScanHomogeneous(b *testing.B) {
	pop := matchPop(b, 1000, 2, 0)
	benchMatch(b, capabilityScan{}, pop, 2)
}

func BenchmarkMatchmakingIndexedHomogeneous(b *testing.B) {
	pop := matchPop(b, 1000, 2, 0)
	benchMatch(b, sqlb.BuildMatchIndex(pop), pop, 2)
}

// BenchmarkMatchmakingChurn measures incremental maintenance: one Remove +
// Add round-trip per iteration on a 1000-provider index.
func BenchmarkMatchmakingChurn(b *testing.B) {
	pop := matchPop(b, 1000, 10, 0.1)
	ix := sqlb.BuildMatchIndex(pop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pop.Providers[i%1000]
		ix.Remove(p)
		ix.Add(p)
	}
}

func BenchmarkMediatorAllocate(b *testing.B) {
	cfg := model.DefaultConfig() // full 400-provider Pq, the paper's hot path
	pop := sqlb.NewPopulation(cfg, 9)
	med := sqlb.NewMediator(sqlb.NewSQLB())
	q := &model.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := med.Allocate(float64(i)*0.01, q, pop); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationThroughput(b *testing.B) {
	// Events per wall-second of the whole discrete-event pipeline.
	for i := 0; i < b.N; i++ {
		opts := sim.Options{
			Config:   model.DefaultConfig().Scale(0.1),
			Strategy: allocator.NewSQLB(),
			Workload: workload.Constant(0.6),
			Duration: 300,
			Seed:     uint64(i + 1),
		}
		eng, err := sim.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		res := eng.Run()
		b.ReportMetric(float64(res.IssuedQueries), "queries/run")
	}
}

// BenchmarkSimulation runs the full paper-scale population (200/400, so
// every Pq is 400 wide) for 150 simulated seconds: the simulator's
// wall-clock per run.
func BenchmarkSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := sim.Options{
			Config:   model.DefaultConfig(),
			Strategy: allocator.NewSQLB(),
			Workload: workload.Constant(0.8),
			Duration: 150,
			Seed:     7,
		}
		eng, err := sim.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		res := eng.Run()
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		b.ReportMetric(float64(res.IssuedQueries), "queries/run")
	}
}

// --- mediation service: batched vs per-query mediation ---

// servePop builds the serving-path population: many providers, few classes
// advertised each, so every mediation matchmakes through a posting list.
func servePop(b *testing.B, providers int) *sqlb.Population {
	b.Helper()
	cfg := sqlb.DefaultConfig().WithClasses(10)
	cfg.Consumers = 8
	cfg.Providers = providers
	cfg.CapabilitySelectivity = 0.1
	return sqlb.NewPopulation(cfg, 17)
}

func serveQueries(pop *sqlb.Population, n, classes int) []*model.Query {
	qs := make([]*model.Query, n)
	for i := range qs {
		qs[i] = &model.Query{
			ID:       uint64(i + 1),
			Consumer: pop.Consumers[i%len(pop.Consumers)],
			Class:    i % classes,
			Units:    130,
			N:        2,
		}
	}
	return qs
}

func serveServer(pop *sqlb.Population) *sqlb.MediationServer {
	srv := sqlb.NewMediationServer(sqlb.NewSQLB(), pop, time.Second, func() float64 { return 0 })
	srv.SetMatchmaker(sqlb.BuildMatchIndex(pop))
	return srv
}

// BenchmarkServerMediate vs BenchmarkServerMediateBatch16 is what a batch
// amortizes: both run the same mediation body, but a batch shares the
// matchmaking lookup and the provider-intention vector across its queries
// of a class and takes the lock once, where Mediate recomputes both per
// query and copies the allocation out for its caller. ns/op is per
// mediation in both.
func BenchmarkServerMediate(b *testing.B) {
	pop := servePop(b, 1000)
	srv := serveServer(pop)
	qs := serveQueries(pop, 256, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Mediate(context.Background(), qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerMediateBatch16(b *testing.B) {
	pop := servePop(b, 1000)
	srv := serveServer(pop)
	qs := serveQueries(pop, 256, 10)
	batch := make([]*model.Query, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		for j := range batch {
			batch[j] = qs[(i+j)%len(qs)]
		}
		for _, r := range srv.MediateBatch(context.Background(), batch) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkServePaperLoop is the serving regime `make profile` records: the
// Table 2 population (|Pq| = 400) mediated in batches of 32 through
// MediateBatch from one closed-loop caller, on a virtual clock that
// advances each query by the mean service demand of a query at 80 % of the
// population's capacity — the repository benchmark's serve-paper clock — so
// provider load sits at the paper's reference point however fast the host
// mediates. A warm-up of 20 000 mediations precedes the timer; ns/op is
// per mediation.
func BenchmarkServePaperLoop(b *testing.B) {
	const batch = 32
	cfg := sqlb.DefaultConfig()
	pop := sqlb.NewPopulation(cfg, 2007)
	dt := cfg.MeanQueryUnitsWeighted() * float64(cfg.QueryN) / (0.8 * pop.TotalCapacity())
	now := 0.0
	srv := sqlb.NewMediationServer(sqlb.NewSQLB(), pop, time.Second, func() float64 { return now })
	srv.SetMatchmaker(sqlb.BuildMatchIndex(pop))
	srv.SetApply(true) // selections are enqueued: the clock's 80 % load is real
	gen, pick := workload.NewGenerator(cfg.QueryClasses, cfg.QueryN, randx.New(1)), randx.New(2)
	gen.SetClassWeights(cfg.ClassWeights())
	stream := make([]*model.Query, 1<<12)
	for i := range stream {
		stream[i] = gen.Next(0, pop.Consumers[pick.Pick(len(pop.Consumers))])
	}
	ctx, next := context.Background(), 0
	mediate := func() {
		qs := stream[next : next+batch]
		next = (next + batch) % len(stream)
		now += batch * dt
		for _, r := range srv.MediateBatch(ctx, qs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	for i := 0; i < 20000; i += batch {
		mediate()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		mediate()
	}
}

// --- serial vs parallel Lab ---

// benchLab runs the Figure 5(c) full-autonomy sweep (2 workloads × 3
// methods × 4 repeats = 24 simulations) on a fresh Lab per iteration with
// the given worker budget. BenchmarkLabSerial vs BenchmarkLabParallel is
// the wall-clock speedup of the parallel experiment pipeline; both produce
// byte-identical artifacts (see experiments.TestParallelLabDeterminism).
func benchLab(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Repeats = 4
		cfg.Workers = workers
		lab := experiments.NewLab(cfg)
		if _, err := lab.Run("fig5c"); err != nil {
			b.Fatalf("fig5c: %v", err)
		}
	}
}

func BenchmarkLabSerial(b *testing.B) { benchLab(b, 1) }

func BenchmarkLabParallel(b *testing.B) { benchLab(b, runtime.GOMAXPROCS(0)) }

// --- ablation benchmarks (DESIGN.md §4) ---

func ablationRun(b *testing.B, strategy allocator.Allocator, mutate func(*model.Config)) *sim.Result {
	b.Helper()
	cfg := model.DefaultConfig().Scale(0.05)
	if mutate != nil {
		mutate(&cfg)
	}
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		opts := sim.Options{
			Config:   cfg,
			Strategy: strategy,
			Workload: workload.Constant(0.8),
			Duration: 1200,
			Seed:     13,
			Autonomy: sim.FullAutonomy(),
		}
		eng, err := sim.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		res = eng.Run()
	}
	return res
}

// BenchmarkAblationOmegaAdaptive vs the fixed-ω variants isolates the
// Equation 6 contribution: the adaptive balance is what protects providers.
func BenchmarkAblationOmegaAdaptive(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), nil)
	b.ReportMetric(100*res.ProviderDepartureRate(), "prov-departures-pct")
	b.ReportMetric(res.MeanResponseTime, "resp-s")
}

func BenchmarkAblationOmegaFixed0(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLBFixedOmega(0), nil)
	b.ReportMetric(100*res.ProviderDepartureRate(), "prov-departures-pct")
	b.ReportMetric(res.MeanResponseTime, "resp-s")
}

func BenchmarkAblationOmegaFixed05(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLBFixedOmega(0.5), nil)
	b.ReportMetric(100*res.ProviderDepartureRate(), "prov-departures-pct")
}

func BenchmarkAblationOmegaFixed1(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLBFixedOmega(1), nil)
	b.ReportMetric(100*res.ProviderDepartureRate(), "prov-departures-pct")
}

// BenchmarkAblationUpsilon* trades consumer preferences for provider
// reputation (Definition 7).
func BenchmarkAblationUpsilonPreferencesOnly(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.Upsilon = 1 })
	b.ReportMetric(res.Final.ConsAllocSat.Mean, "consumer-allocsat")
}

func BenchmarkAblationUpsilonBalanced(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.Upsilon = 0.5 })
	b.ReportMetric(res.Final.ConsAllocSat.Mean, "consumer-allocsat")
}

func BenchmarkAblationUpsilonReputationOnly(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.Upsilon = 0 })
	b.ReportMetric(res.Final.ConsAllocSat.Mean, "consumer-allocsat")
}

// BenchmarkAblationWindowK* varies the provider satisfaction window.
func BenchmarkAblationWindowKSmall(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.ProviderK = 10 })
	b.ReportMetric(res.Final.ProvSatPreference.Mean, "prov-sat-pref")
}

func BenchmarkAblationWindowKLarge(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.ProviderK = 200 })
	b.ReportMetric(res.Final.ProvSatPreference.Mean, "prov-sat-pref")
}

// BenchmarkAblationEpsilonSmall sets ε of Definitions 7 and 8 to 0.1;
// Definition 9 scores at core.DefaultEpsilon whatever Config.Epsilon says.
func BenchmarkAblationEpsilonSmall(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.Epsilon = 0.1 })
	b.ReportMetric(res.MeanResponseTime, "resp-s")
}

// BenchmarkAblationUtilWindow varies the utilization window W.
func BenchmarkAblationUtilWindowShort(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.UtilizationWindow = 15 })
	b.ReportMetric(res.Final.Utilization.Fairness, "util-fairness")
}

func BenchmarkAblationUtilWindowLong(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLB(), func(c *model.Config) { c.UtilizationWindow = 240 })
	b.ReportMetric(res.Final.Utilization.Fairness, "util-fairness")
}

// The extension strategy vs SQLB under the same autonomy setting.
func BenchmarkExtensionSQLBEconomic(b *testing.B) {
	res := ablationRun(b, allocator.NewSQLBEconomic(), nil)
	b.ReportMetric(100*res.ProviderDepartureRate(), "prov-departures-pct")
	b.ReportMetric(res.MeanResponseTime, "resp-s")
}

// --- population scale: up to 100k providers ---

// scalePop builds a population-scale cohort: hashed consumer preferences
// (no O(|C|·|P|) preference matrix) and an explicit provider window —
// Config.Scale would grow ProviderK with |P|, which at 100k providers is
// 0.8 GB of ring storage at the paper's k for dynamics the sweep does not
// measure.
func scalePop(b *testing.B, providers, consumers int) *sqlb.Population {
	b.Helper()
	cfg := sqlb.DefaultConfig()
	cfg.Providers = providers
	cfg.Consumers = consumers
	cfg.ProviderK = 100
	cfg.ConsumerK = 50
	cfg.PriorSamples = 20
	cfg.HashedConsumerPrefs = true
	return sqlb.NewPopulation(cfg, 23)
}

// BenchmarkMediateScale is the population-size curve: MediateBatch in
// batches of 32 over a homogeneous population of |P| providers (Pq is all
// of them), on a virtual clock that advances each query by the mean
// service demand at 80 % of the population's capacity and with the
// selections enqueued, so provider load sits at the paper's reference
// point at every size, as in BenchmarkServePaperLoop. The population is
// scalePop's, with 1 000 consumers; ProviderK mediations warm the windows
// before the timer. It reports ns per candidate — flat in |P| while
// mediation is pure compute over the dense population arrays — and the
// population's heap bytes per participant.
func BenchmarkMediateScale(b *testing.B) {
	const batch = 32
	for _, size := range []struct {
		name      string
		providers int
	}{{"400", 400}, {"4k", 4_000}, {"20k", 20_000}, {"100k", 100_000}} {
		b.Run(size.name, func(b *testing.B) {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			pop := scalePop(b, size.providers, 1000)
			runtime.GC()
			runtime.ReadMemStats(&m1)
			cfg := pop.Config
			dt := cfg.MeanQueryUnitsWeighted() * float64(cfg.QueryN) / (0.8 * pop.TotalCapacity())
			now := 0.0
			srv := sqlb.NewMediationServer(sqlb.NewSQLB(), pop, time.Second, func() float64 { return now })
			srv.SetMatchmaker(sqlb.BuildMatchIndex(pop))
			srv.SetApply(true)
			gen, pick := workload.NewGenerator(cfg.QueryClasses, cfg.QueryN, randx.New(1)), randx.New(2)
			stream := make([]*model.Query, 1<<10)
			for i := range stream {
				stream[i] = gen.Next(0, pop.Consumers[pick.Pick(len(pop.Consumers))])
			}
			ctx, next := context.Background(), 0
			mediate := func() {
				qs := stream[next : next+batch]
				next = (next + batch) % len(stream)
				now += batch * dt
				for _, r := range srv.MediateBatch(ctx, qs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			for i := 0; i < cfg.ProviderK; i += batch {
				mediate()
			}
			b.ResetTimer()
			mediated := 0
			for ; mediated < b.N; mediated += batch {
				mediate()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mediated*size.providers), "ns/candidate")
			b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/float64(len(pop.Providers)+len(pop.Consumers)), "bytes/participant")
		})
	}
}

// BenchmarkPopulationBuild100k measures building the 100k-provider /
// 1k-consumer population and reports its resident footprint per
// participant (heap delta across the build, after GC settles).
func BenchmarkPopulationBuild100k(b *testing.B) {
	var pop *sqlb.Population
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		pop = nil
		runtime.GC()
		runtime.ReadMemStats(&m0)
		pop = scalePop(b, 100_000, 1000)
		runtime.GC()
		runtime.ReadMemStats(&m1)
	}
	participants := float64(len(pop.Providers) + len(pop.Consumers))
	b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/participants, "bytes/participant")
}

// narrowConfig is the repository benchmark's sim-narrow population: 1000
// consumers, 2000 providers, each advertising one of 128 classes, so a Pq
// holds about 15.6 providers.
func narrowConfig() sqlb.Config {
	cfg := sqlb.DefaultConfig().WithClasses(128)
	cfg.Consumers, cfg.Providers, cfg.ProviderK = 1000, 2000, 100
	cfg.CapabilitySelectivity = 1.0 / 128
	return cfg
}

// BenchmarkMediateNarrow is one Mediator.Allocate over the sim-narrow
// population through its match index, rotating class and consumer: a Pq of
// a class's few providers, which the population lays out as one run of
// each per-provider slab.
func BenchmarkMediateNarrow(b *testing.B) {
	pop := sqlb.NewPopulation(narrowConfig(), 1)
	med := sqlb.NewMediator(sqlb.NewSQLB())
	med.Match = matchmaking.BuildIndex(pop)
	q := &model.Query{ID: 1, N: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Class = i % len(pop.Classes)
		q.Units = pop.Classes[q.Class].Units
		q.Consumer = pop.Consumers[i%len(pop.Consumers)]
		if _, err := med.Allocate(float64(i)*0.001, q, pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationBuildNarrow builds the sim-narrow population: ns/op is
// the set-up a narrow run pays, bytes/participant what it keeps resident.
func BenchmarkPopulationBuildNarrow(b *testing.B) {
	var pop *sqlb.Population
	var m0, m1 runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pop = nil
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		pop = sqlb.NewPopulation(narrowConfig(), 1)
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	participants := float64(len(pop.Providers) + len(pop.Consumers))
	b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/participants, "bytes/participant")
}

// BenchmarkTimelineCSV measures the streaming timeline writer: rows/sec
// through the CSV sink and — the contract the live tailing path relies
// on — zero allocations per row once the encode buffer is warm.
func BenchmarkTimelineCSV(b *testing.B) {
	sink := timeline.NewCSVSink(io.Discard)
	snap := timeline.Snapshot{
		Time: 1, Source: "sim", WorkloadFraction: 0.8,
		QPSIn: 240.5, QPSOut: 231.25, Dropped: 3, QueueDepth: 17,
		LatencyMean: 0.131, LatencyP50: 0.09, LatencyP95: 0.52, LatencyP99: 1.4,
		ProvSat: 0.61, ConsSat: 0.58, AllocSat: 0.97, SatFairness: 0.91,
		UtilMean: 0.74, UtilFairness: 0.88, UtilGini: 0.19,
		UtilClassLow: 0.91, UtilClassMed: 0.74, UtilClassHigh: 0.6,
		AliveProviders: 96, AliveConsumers: 50, Departures: 4, Joins: 1,
	}
	// Warm the header and the reusable encode buffer before timing.
	if err := sink.Append(snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		snap.Time = float64(i)
		if err := sink.Append(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "rows/s")
	b.StopTimer()
	if err := sink.Close(); err != nil {
		b.Fatal(err)
	}
}
