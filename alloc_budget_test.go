// Allocation-budget regression tests: the steady-state heap cost of every
// hot path is pinned with testing.AllocsPerRun so an accidental per-call
// allocation (a closure that escapes, a map rebuilt per mediation, a slice
// forgotten off the scratch) fails tier-1 instead of silently eroding the
// zero-allocation mediation contract. Budgets are exact where the contract
// is exact (zero) and small where a path legitimately returns a fresh result
// container (MediateBatch's result slice, Mediate's durable copy).
package sqlb_test

import (
	"context"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"sqlb"
	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/sim"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

// countResolves wraps a strategy and counts the provider intentions it
// resolved: the slots of PI that held a deferred bound when it was called
// and Definition 8's exact value when it returned. The budgets below are
// pinned with that happening, on populations loaded until providers are
// unwilling. Its one buffer grows to |Pq| and is reused.
type countResolves struct {
	allocator.Allocator
	before   []float64
	resolved int
}

func (c *countResolves) Allocate(req *allocator.Request) []int {
	c.before = append(c.before[:0], req.PI...)
	selected := c.Allocator.Allocate(req)
	for i, v := range req.PI {
		if v != c.before[i] {
			c.resolved++
		}
	}
	return selected
}

// overload queues ten seconds of work on every provider and moves its δs
// off the initial ½: each is then on Definition 8's negative branch with a
// load factor that costs a pow, where the mediator gathers a bound.
func overload(pop *model.Population) {
	for _, p := range pop.Providers {
		p.Assign(0, 10*p.Capacity)
		p.SmoothSat = 0.6
	}
}

// TestAllocBudgetMediatorAllocate pins the simulator's mediation fast path
// at zero steady-state allocations: matchmaking, intention gathering,
// scoring/ranking/selection with its resolves, and result notification all
// run out of the mediator's scratch once its buffers are warm.
func TestAllocBudgetMediatorAllocate(t *testing.T) {
	cfg := model.DefaultConfig() // full 400-provider Pq
	pop := sqlb.NewPopulation(cfg, 9)
	overload(pop)
	strategy := &countResolves{Allocator: sqlb.NewSQLB()}
	med := sqlb.NewMediator(strategy)
	q := &model.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: 1}
	now := 0.0
	mediate := func() {
		now += 0.01
		if _, err := med.Allocate(now, q, pop); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		mediate() // warm the scratch to the population's high-water mark
	}
	strategy.resolved = 0
	evals := reflect.ValueOf(med).Elem().FieldByName("rows").FieldByName("evals")
	before := evals.Uint()
	if allocs := testing.AllocsPerRun(100, mediate); allocs != 0 {
		t.Errorf("Mediator.Allocate: %v allocs/op in steady state, want 0", allocs)
	}
	// The consumer's row is kept, and so is the count of Definition 7
	// evaluations tests read (TestWorkCounts): a plain integer nothing
	// moves on a row hit.
	if n := evals.Uint() - before; n != 0 {
		t.Errorf("Mediator.Allocate: %d Definition 7 evaluations over warm mediations of one consumer, want 0", n)
	}
	if strategy.resolved < 100 {
		t.Errorf("%d intentions resolved over the measured mediations, want at least one each", strategy.resolved)
	}
}

// TestAllocBudgetProviderIntention pins Definition 8's entrance at zero
// allocations whether it finds both kept factors (warm), recomputes the
// load factor (a moved clock), or empties and refills the memo (a changed
// δs): the memo's storage is carved when the population is built, never on
// a call.
func TestAllocBudgetProviderIntention(t *testing.T) {
	p := sqlb.NewPopulation(model.DefaultConfig(), 9).Providers[0]
	p.Assign(0, 1e6)
	now, sink := 1.0, 0.0
	for name, call := range map[string]func(){
		"warm":      func() { sink += p.IntentionAt(0, p.OperationalLoad(now)) },
		"cold load": func() { now += 0.01; sink += p.IntentionAt(1, p.OperationalLoad(now)) },
		"cold δs":   func() { p.SmoothSat = 0.9 - p.SmoothSat; sink += p.IntentionAt(0, p.OperationalLoad(now)) },
	} {
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("Provider.IntentionAt (%s): %v allocs/op, want 0", name, allocs)
		}
	}
	if math.IsNaN(sink) {
		t.Error("NaN intention")
	}
}

// TestAllocBudgetParticipantWrites pins the writers that announce a
// participant's state at zero allocations: the reputation setters, which
// move the population's reputation version, and departures and rejoins.
func TestAllocBudgetParticipantWrites(t *testing.T) {
	pop := sqlb.NewPopulation(model.DefaultConfig(), 9)
	p, c := pop.Providers[0], pop.Consumers[0]
	r := 0.0
	for name, call := range map[string]func(){
		"SetReputation":   func() { r = 0.5 - r; pop.SetReputation(p, r) },
		"RecordFeedback":  func() { pop.RecordFeedback(p, 1, 0.25) },
		"Depart, Rejoin":  func() { p.Depart(model.ReasonOutage); p.Rejoin() },
		"Consumer.Depart": func() { c.Depart(model.ReasonDissatisfaction) },
	} {
		if allocs := testing.AllocsPerRun(100, call); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	if pop.ReputationVersion() == 0 || !p.Alive() || c.Alive() {
		t.Errorf("reputation version %d, provider alive %v, consumer alive %v", pop.ReputationVersion(), p.Alive(), c.Alive())
	}
}

// TestAllocBudgetMatchmakingLookup pins the indexed posting-list lookup at
// zero allocations per query.
func TestAllocBudgetMatchmakingLookup(t *testing.T) {
	cfg := sqlb.DefaultConfig().WithClasses(10)
	cfg.Consumers = 2
	cfg.Providers = 1000
	cfg.CapabilitySelectivity = 0.1
	pop := sqlb.NewPopulation(cfg, 7)
	ix := sqlb.BuildMatchIndex(pop)
	q := &model.Query{ID: 1, Consumer: pop.Consumers[0], Units: 130, N: 1}
	i := 0
	lookup := func() {
		q.Class = i % 10
		i++
		if len(ix.Match(q, pop)) == 0 {
			t.Fatal("empty posting list")
		}
	}
	lookup()
	if allocs := testing.AllocsPerRun(100, lookup); allocs != 0 {
		t.Errorf("Index.Match: %v allocs/op, want 0", allocs)
	}
}

// TestAllocBudgetServerMediateBatch pins the batched serving path: once the
// server's batch scratch is warm, a whole batch allocates exactly its
// BatchResult slice — the Allocation slab it points into is reused — which
// is 24 B per query whatever |Pq| is. A closed-loop caller at paper scale
// turns every byte per query into resident set between collections, so the
// bytes are pinned as well as the count.
func TestAllocBudgetServerMediateBatch(t *testing.T) {
	cfg := sqlb.DefaultConfig().WithClasses(10)
	cfg.Consumers = 8
	cfg.Providers = 1000
	cfg.CapabilitySelectivity = 0.1
	pop := sqlb.NewPopulation(cfg, 17)
	overload(pop)
	strategy := &countResolves{Allocator: sqlb.NewSQLB()}
	srv := sqlb.NewMediationServer(strategy, pop, 0, func() float64 { return 0 })
	srv.SetMatchmaker(sqlb.BuildMatchIndex(pop))
	qs := make([]*model.Query, 16)
	for i := range qs {
		qs[i] = &model.Query{
			ID:       uint64(i + 1),
			Consumer: pop.Consumers[i%len(pop.Consumers)],
			Class:    i % 10,
			Units:    130,
			N:        2,
		}
	}
	ctx := context.Background()
	batch := func() {
		for _, r := range srv.MediateBatch(ctx, qs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		batch() // warm per-class buffers, consumer rows, and selection arena
	}
	strategy.resolved = 0
	if allocs := testing.AllocsPerRun(50, batch); allocs != 1 {
		t.Errorf("MediateBatch: %v allocs per 16-query batch in steady state, want 1 (its result slice)", allocs)
	}
	if strategy.resolved < 50 {
		t.Errorf("%d intentions resolved over the measured batches, want at least one each", strategy.resolved)
	}
	const batches = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		batch()
	}
	runtime.ReadMemStats(&after)
	if perQuery := float64(after.TotalAlloc-before.TotalAlloc) / float64(batches*len(qs)); perQuery > 32 {
		t.Errorf("MediateBatch: %.1f B/query in steady state, want <= 32", perQuery)
	}
}

// TestAllocBudgetServerMediate pins the single-query entrance at paper
// scale (|Pq| = 400): it runs the batch body on a batch of one, so all it
// may allocate is the durable copy it hands its caller — the Allocation and
// its Pq, CI, PI and Selected.
func TestAllocBudgetServerMediate(t *testing.T) {
	pop := sqlb.NewPopulation(model.DefaultConfig(), 9)
	srv := sqlb.NewMediationServer(sqlb.NewSQLB(), pop, 0, func() float64 { return 0 })
	srv.SetMatchmaker(sqlb.BuildMatchIndex(pop))
	qs := make([]*model.Query, 16)
	for i := range qs {
		qs[i] = &model.Query{ID: uint64(i + 1), Consumer: pop.Consumers[i%8], Class: i % 2, Units: 130, N: 2}
	}
	ctx := context.Background()
	i := 0
	mediate := func() {
		i++
		if alloc, err := srv.Mediate(ctx, qs[i%len(qs)]); err != nil || len(alloc.Pq) != 400 {
			t.Fatalf("Mediate: %v", err)
		}
	}
	for i < 2*len(qs) {
		mediate() // warm the per-class buffers and the consumer rows
	}
	if allocs := testing.AllocsPerRun(100, mediate); allocs > 5 {
		t.Errorf("Server.Mediate: %v allocs/op in steady state at |Pq| = 400, want <= 5", allocs)
	}
}

// TestAllocBudgetSimulationLoop pins what the event loop may allocate per
// simulated query: nothing for the query (minted in place), the event heap
// (typed, no boxing) or the in-flight ledger (entries by value). The §4
// samples and the growth of the heap slice and the ledger map to their
// high-water marks are amortized into the slack.
func TestAllocBudgetSimulationLoop(t *testing.T) {
	strategy := &countResolves{Allocator: allocator.NewSQLB()}
	eng, err := sim.New(sim.Options{
		Config:   model.DefaultConfig().Scale(0.25),
		Strategy: strategy,
		Workload: workload.Constant(0.8),
		Duration: 400,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := eng.Run()
	runtime.ReadMemStats(&after)
	if res.Err != nil || res.IssuedQueries < 5000 || strategy.resolved < 5000 {
		t.Fatalf("run: err %v, %d queries, %d intentions resolved", res.Err, res.IssuedQueries, strategy.resolved)
	}
	perQuery := float64(after.Mallocs-before.Mallocs) / float64(res.IssuedQueries)
	if perQuery > 0.25 {
		t.Errorf("Engine.Run: %.2f allocs per simulated query, want <= 0.25 (amortized growth only)", perQuery)
	}
}

// TestAllocBudgetTimelineCSVRow pins the timeline CSV sink at zero
// allocations per appended row — the contract the live tailing path
// (sqlb-top) relies on.
func TestAllocBudgetTimelineCSVRow(t *testing.T) {
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
	if err := sink.Append(snap); err != nil { // header + encode buffer warmup
		t.Fatal(err)
	}
	i := 0.0
	row := func() {
		i++
		snap.Time = i
		if err := sink.Append(snap); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, row); allocs != 0 {
		t.Errorf("CSVSink.Append: %v allocs/row, want 0", allocs)
	}
}
