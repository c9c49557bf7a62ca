package mediator

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/matchmaking"
	"sqlb/internal/model"
	"sqlb/internal/randx"
)

// batchFixture builds two identical populations (same seed) so one can be
// driven through sequential Mediate and the other through MediateBatch.
func batchFixture(t *testing.T, consumers, providers int) (a, b *model.Population) {
	t.Helper()
	cfg := model.DefaultConfig()
	cfg.Consumers = consumers
	cfg.Providers = providers
	return model.NewPopulation(cfg, randx.New(33), 0),
		model.NewPopulation(cfg, randx.New(33), 0)
}

// mintQueries mints the same query stream against both populations' consumers.
func mintQueries(pop *model.Population, n int) []*model.Query {
	qs := make([]*model.Query, n)
	for i := range qs {
		qs[i] = &model.Query{
			ID:       uint64(i + 1),
			Consumer: pop.Consumers[i%len(pop.Consumers)],
			Class:    i % 2,
			Units:    130 + 20*float64(i%2),
			N:        1 + i%2,
		}
	}
	return qs
}

// entranceFixture builds one population of a same-seed family: four query
// classes and specialists advertising half of them, so Pq differs by class
// and the index matchmaker has real posting lists to answer from. The
// providers have re-assessed themselves — δs is off its initial ½, where a
// load factor costs no pow and nothing would be deferred — and half of them
// start with a backlog, so unwilling.
func entranceFixture() *model.Population {
	cfg := model.DefaultConfig().WithClasses(4)
	cfg.Consumers = 5
	cfg.Providers = 24
	cfg.CapabilitySelectivity = 0.5
	pop := model.NewPopulation(cfg, randx.New(33), 0)
	for i, p := range pop.Providers {
		p.SmoothSat = 0.3 + 0.05*float64(i%9)
		if i%2 == 0 {
			p.Assign(0, 8*p.Capacity)
		}
	}
	return pop
}

// mintClassQueries is mintQueries spread over every class of the population.
func mintClassQueries(pop *model.Population, n int) []*model.Query {
	qs := mintQueries(pop, n)
	for i, q := range qs {
		q.Class = (i / 2) % len(pop.Classes)
		q.Units = pop.Classes[q.Class].Units
	}
	return qs
}

// resolveAll makes a strategy look at every provider intention before it
// allocates, so that the mediator it is given to leaves PI exact in every
// slot: the reference side of a comparison under Allocation's PI contract.
type resolveAll struct{ allocator.Allocator }

func (r resolveAll) Allocate(req *allocator.Request) []int {
	req.ResolvePI()
	return r.Allocator.Allocate(req)
}

// piHolds is Allocation's contract for one slot of PI, given Definition 8's
// exact value: those bits, or an upper bound ≤ −1 of them.
func piHolds(got, exact float64) bool {
	return math.Float64bits(got) == math.Float64bits(exact) || (exact <= got && got <= -1)
}

// sameAllocation compares an entrance's allocation with the reference's,
// which ran under resolveAll: the same providers in Pq, the same selection,
// bit-equal consumer intentions, provider intentions that hold the contract
// against the reference's exact ones and are exact for everyone selected.
func sameAllocation(t *testing.T, entrance string, i int, got, want *Allocation) (bounds int) {
	t.Helper()
	if len(got.Pq) != len(want.Pq) || !equalInts(got.Selected, want.Selected) {
		t.Fatalf("query %d: %s has |Pq| %d, selected %v; reference |Pq| %d, selected %v",
			i, entrance, len(got.Pq), got.Selected, len(want.Pq), want.Selected)
	}
	for j := range want.Pq {
		if got.Pq[j].ID != want.Pq[j].ID ||
			math.Float64bits(got.CI[j]) != math.Float64bits(want.CI[j]) ||
			!piHolds(got.PI[j], want.PI[j]) {
			t.Fatalf("query %d candidate %d: %s has p%d ci %v pi %v, reference p%d ci %v pi %v", i, j, entrance,
				got.Pq[j].ID, got.CI[j], got.PI[j], want.Pq[j].ID, want.CI[j], want.PI[j])
		}
		if got.PI[j] != want.PI[j] {
			bounds++
		}
	}
	for _, j := range got.Selected {
		if math.Float64bits(got.PI[j]) != math.Float64bits(want.PI[j]) {
			t.Fatalf("query %d: %s selected p%d on pi %v, reference has %v", i, entrance, got.Pq[j].ID, got.PI[j], want.PI[j])
		}
	}
	return bounds
}

// samePopulationState compares what the mediations left behind in every
// participant: the satisfaction windows and, under apply, the queues.
func samePopulationState(t *testing.T, entrance string, got, want *model.Population) {
	t.Helper()
	for i, w := range want.Providers {
		g := got.Providers[i]
		if g.Public.Proposed() != w.Public.Proposed() || g.Public.Performed() != w.Public.Performed() ||
			g.Public.Satisfaction() != w.Public.Satisfaction() || g.Private.Satisfaction() != w.Private.Satisfaction() ||
			g.QueriesPerformed != w.QueriesPerformed || g.Backlog(0) != w.Backlog(0) {
			t.Fatalf("provider %d: %s left %d/%d proposals, δs %v/%v, %d performed; reference %d/%d, %v/%v, %d", i, entrance,
				g.Public.Performed(), g.Public.Proposed(), g.Public.Satisfaction(), g.Private.Satisfaction(), g.QueriesPerformed,
				w.Public.Performed(), w.Public.Proposed(), w.Public.Satisfaction(), w.Private.Satisfaction(), w.QueriesPerformed)
		}
	}
	for i, w := range want.Consumers {
		g := got.Consumers[i]
		if g.Tracker.Queries() != w.Tracker.Queries() || g.Tracker.Satisfaction() != w.Tracker.Satisfaction() {
			t.Fatalf("consumer %d: %s left %d queries, δs %v; reference %d, %v", i, entrance,
				g.Tracker.Queries(), g.Tracker.Satisfaction(), w.Tracker.Queries(), w.Tracker.Satisfaction())
		}
	}
}

// TestMediateBatchEquivalentToSequential holds the server's two entrances
// against an independent reference. Mediate and MediateBatch run one body,
// so comparing them with each other would compare the code with itself; the
// reference is Mediator.Allocate — the simulator's entrance, which gathers
// intentions in its own loop and shares only the allocation commit with the
// server — on a same-seed twin population, with the allocation applied by
// hand when the servers apply theirs. Every entrance sees the same stream
// at the same clock readings, batches of uneven size are consumed in turn
// out of the reused scratch, and all three must agree query for query —
// selections, intentions (the reference resolves every PI, the entrances
// only those SQLB asks for) — and in the state they leave behind.
//
// Under SetApply a batch's Definition 8 vector is a snapshot from the start
// of the batch (stale by up to one batch, by contract), so there only
// Mediate is held against the reference.
func TestMediateBatchEquivalentToSequential(t *testing.T) {
	for _, apply := range []bool{false, true} {
		popRef, popSeq, popBatch := entranceFixture(), entranceFixture(), entranceFixture()
		clock := 0.0
		now := func() float64 { return clock }
		ref := New(resolveAll{allocator.NewSQLB()})
		ref.Match = matchmaking.BuildIndex(popRef)
		seq := NewServer(allocator.NewSQLB(), popSeq, 0, now)
		seq.SetMatchmaker(matchmaking.BuildIndex(popSeq))
		seq.SetApply(apply)
		bat := NewServer(allocator.NewSQLB(), popBatch, 0, now)
		bat.SetMatchmaker(matchmaking.BuildIndex(popBatch))

		const n = 160
		bounds := 0
		qsRef, qsSeq, qsBatch := mintClassQueries(popRef, n), mintClassQueries(popSeq, n), mintClassQueries(popBatch, n)
		for lo, size := 0, 1; lo < n; lo, size = lo+size, size%7+2 {
			hi := min(lo+size, n)
			clock += 0.25
			var results []BatchResult
			if !apply {
				results = bat.MediateBatch(context.Background(), qsBatch[lo:hi])
			}
			for i := lo; i < hi; i++ {
				want, err := ref.Allocate(clock, qsRef[i], popRef)
				if err != nil {
					t.Fatalf("apply=%v query %d: reference: %v", apply, i, err)
				}
				if apply {
					for _, idx := range want.Selected {
						want.Pq[idx].Assign(clock, qsRef[i].Units)
					}
				}
				got, err := seq.Mediate(context.Background(), qsSeq[i])
				if err != nil {
					t.Fatalf("apply=%v query %d: Mediate: %v", apply, i, err)
				}
				bounds += sameAllocation(t, "Mediate", i, got, want)
				if !apply {
					if r := results[i-lo]; r.Err != nil {
						t.Fatalf("query %d: MediateBatch: %v", i, r.Err)
					} else {
						sameAllocation(t, "MediateBatch", i, r.Alloc, want)
					}
				}
			}
		}
		if bounds == 0 {
			t.Errorf("apply=%v: no provider intention was left as a bound; the comparison ran on exact values only", apply)
		}
		samePopulationState(t, "Mediate", popSeq, popRef)
		if !apply {
			samePopulationState(t, "MediateBatch", popBatch, popRef)
		}
	}
}

func TestMediateBatchPerQueryErrors(t *testing.T) {
	pop := newPop(t, 2, 4)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, func() float64 { return 0 })
	good := newQuery(pop, 1, 1)
	noConsumer := newQuery(pop, 2, 1)
	noConsumer.Consumer = nil
	unservable := newQuery(pop, 3, 1)
	unservable.Class = 99 // no provider advertises it under a class-bounded matchmaker
	srv.SetMatchmaker(CapabilityMatcher{Capable: func(p *model.Provider, class int) bool {
		return class < 2
	}})
	res := srv.MediateBatch(context.Background(), []*model.Query{good, noConsumer, unservable, nil})
	if res[0].Err != nil || res[0].Alloc == nil {
		t.Fatalf("good query failed: %v", res[0].Err)
	}
	if res[1].Err == nil || res[3].Err == nil {
		t.Fatal("consumer-less/nil queries accepted")
	}
	if !errors.Is(res[2].Err, ErrNoProviders) {
		t.Fatalf("unservable class: err = %v, want ErrNoProviders", res[2].Err)
	}
}

func TestMediateBatchAfterClose(t *testing.T) {
	pop := newPop(t, 1, 3)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, nil)
	srv.Close()
	res := srv.MediateBatch(context.Background(), mintQueries(pop, 3))
	for i, r := range res {
		if r.Err != ErrServerClosed {
			t.Fatalf("result %d: err = %v, want ErrServerClosed", i, r.Err)
		}
	}
}

func TestMediateBatchApplyLoadsProviders(t *testing.T) {
	pop := newPop(t, 1, 4)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, func() float64 { return 0 })
	srv.SetApply(true)
	res := srv.MediateBatch(context.Background(), mintQueries(pop, 8))
	assigned := 0
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("batch: %v", r.Err)
		}
		assigned += len(r.Alloc.Selected)
	}
	var performed uint64
	var backlog float64
	for _, p := range pop.Providers {
		performed += p.QueriesPerformed
		backlog += p.Backlog(0)
	}
	if performed != uint64(assigned) {
		t.Fatalf("providers performed %d queries, want %d (SetApply commits Assign)", performed, assigned)
	}
	if backlog <= 0 {
		t.Fatal("applied allocations should leave queued work behind")
	}
}

// TestServerMediateCloseRace drives concurrent Mediate, MediateBatch, and
// Close — the shutdown path the serving driver exercises. Run under
// `go test -race`: the invariant is simply that every call returns either a
// valid allocation or ErrServerClosed, with no data race.
func TestServerMediateCloseRace(t *testing.T) {
	pop := newPop(t, 4, 12)
	srv := NewServer(allocator.NewSQLB(), pop, 100*time.Millisecond, nil)
	srv.SetApply(true)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				q := newQuery(pop, uint64(1000*g+i), 1)
				q.Consumer = pop.Consumers[(g+i)%len(pop.Consumers)]
				if g%2 == 0 {
					if _, err := srv.Mediate(context.Background(), q); err != nil && err != ErrServerClosed {
						t.Errorf("Mediate: %v", err)
						return
					}
					continue
				}
				for _, r := range srv.MediateBatch(context.Background(), []*model.Query{q}) {
					if r.Err != nil && r.Err != ErrServerClosed {
						t.Errorf("MediateBatch: %v", r.Err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(time.Millisecond)
		srv.Close()
	}()
	close(start)
	wg.Wait()
	// After Close every path must fail fast.
	if _, err := srv.Mediate(context.Background(), newQuery(pop, 9999, 1)); err != ErrServerClosed {
		t.Fatalf("post-close Mediate err = %v, want ErrServerClosed", err)
	}
}

// TestMediateBatchHostileClasses: a query whose class the population does
// not define — negative, just past the end, absurdly large — gets the same
// outcome from MediateBatch as from Mediate under both kinds of matchmaker
// (a class-bounded one finds it no provider, AllProviders matches everyone), the
// per-class cache does not grow to reach it, and the mediation lock is
// released afterwards.
func TestMediateBatchHostileClasses(t *testing.T) {
	hostile := []int{-1, math.MinInt, 2, 99, math.MaxInt}
	for _, bounded := range []bool{true, false} {
		popSeq, popBatch := batchFixture(t, 2, 8)
		now := func() float64 { return 3 }
		seq := NewServer(allocator.NewSQLB(), popSeq, 100*time.Millisecond, now)
		bat := NewServer(allocator.NewSQLB(), popBatch, 100*time.Millisecond, now)
		if bounded {
			onlyDefined := CapabilityMatcher{Capable: func(_ *model.Provider, class int) bool {
				return class >= 0 && class < len(popSeq.Classes)
			}}
			seq.SetMatchmaker(onlyDefined)
			bat.SetMatchmaker(onlyDefined)
		}
		mint := func(pop *model.Population) []*model.Query {
			qs := []*model.Query{newQuery(pop, 1, 1)}
			for i, class := range hostile {
				q := newQuery(pop, uint64(10+i), 2)
				q.Class = class
				qs = append(qs, q, newQuery(pop, uint64(20+i), 1))
			}
			return qs
		}
		var want []*Allocation
		var wantErr []error
		for _, q := range mint(popSeq) {
			alloc, err := seq.Mediate(context.Background(), q)
			want, wantErr = append(want, alloc), append(wantErr, err)
		}
		results := bat.MediateBatch(context.Background(), mint(popBatch))
		for i, r := range results {
			if errors.Is(r.Err, ErrNoProviders) != errors.Is(wantErr[i], ErrNoProviders) || (r.Err == nil) != (wantErr[i] == nil) {
				t.Fatalf("bounded=%v query %d: batch err %v, sequential err %v", bounded, i, r.Err, wantErr[i])
			}
			if r.Err != nil {
				continue
			}
			if len(r.Alloc.Selected) != len(want[i].Selected) {
				t.Fatalf("bounded=%v query %d: batch selected %v, sequential %v", bounded, i, r.Alloc.Selected, want[i].Selected)
			}
			for j, idx := range want[i].Selected {
				if r.Alloc.Pq[r.Alloc.Selected[j]].ID != want[i].Pq[idx].ID {
					t.Fatalf("bounded=%v query %d: batch selected %v, sequential %v", bounded, i, r.Alloc.Selected, want[i].Selected)
				}
			}
		}
		if bounded && wantErr[1] == nil {
			t.Fatal("fixture: the class-bounded matchmaker served a hostile class")
		}
		if !bounded && wantErr[1] != nil {
			t.Fatalf("fixture: AllProviders refused a hostile class: %v", wantErr[1])
		}
		if got := len(bat.batch.stamp); got != len(popBatch.Classes) {
			t.Fatalf("bounded=%v: per-class cache holds %d classes, population defines %d", bounded, got, len(popBatch.Classes))
		}
		if got, most := len(bat.batch.ci), len(popBatch.Classes)*len(popBatch.Consumers); got > most {
			t.Fatalf("bounded=%v: consumer-intention cache holds %d entries, bound is %d", bounded, got, most)
		}
		locked := make(chan struct{})
		go func() {
			bat.WithPopulation(func(*model.Population) {})
			close(locked)
		}()
		select {
		case <-locked:
		case <-time.After(5 * time.Second):
			t.Fatalf("bounded=%v: mediation lock still held after the batch", bounded)
		}
	}
}

// TestMediateBatchesConsumedInTurn is the lifetime contract in use: a
// caller that reads each batch's results before its next call sees, batch
// after batch out of the same reused scratch, what sequential Mediate
// returns — selections, intention vectors, and the trackers' state.
func TestMediateBatchesConsumedInTurn(t *testing.T) {
	popSeq, popBatch := batchFixture(t, 5, 24)
	clock := 0.0
	now := func() float64 { return clock }
	seq := NewServer(resolveAll{allocator.NewSQLB()}, popSeq, 100*time.Millisecond, now)
	bat := NewServer(allocator.NewSQLB(), popBatch, 100*time.Millisecond, now)
	seq.SetApply(true)
	bat.SetApply(true)
	const n = 120
	qsSeq, qsBatch := mintQueries(popSeq, n), mintQueries(popBatch, n)
	// Batches of uneven size, so the slab shrinks and regrows; one query
	// per class and batch keeps Definition 8's load term identical on both
	// sides (see MediateBatch on intra-batch staleness under SetApply).
	for lo, size := 0, 1; lo < n; lo, size = lo+size, size%2+1 {
		hi := min(lo+size, n)
		clock++
		results := bat.MediateBatch(context.Background(), qsBatch[lo:hi])
		for i, r := range results {
			want, err := seq.Mediate(context.Background(), qsSeq[lo+i])
			if err != nil || r.Err != nil {
				t.Fatalf("query %d: sequential err %v, batch err %v", lo+i, err, r.Err)
			}
			if r.Alloc.Query != qsBatch[lo+i] {
				t.Fatalf("query %d: result carries query %d", lo+i, r.Alloc.Query.ID)
			}
			if !equalInts(r.Alloc.Selected, want.Selected) {
				t.Fatalf("query %d: batch selected %v, sequential %v", lo+i, r.Alloc.Selected, want.Selected)
			}
			for j := range want.CI {
				if r.Alloc.CI[j] != want.CI[j] || !piHolds(r.Alloc.PI[j], want.PI[j]) {
					t.Fatalf("query %d provider %d: intentions diverged (%v/%v vs %v/%v)",
						lo+i, j, r.Alloc.CI[j], r.Alloc.PI[j], want.CI[j], want.PI[j])
				}
			}
		}
	}
	for i, p := range popSeq.Providers {
		pb := popBatch.Providers[i]
		if p.Public.Satisfaction() != pb.Public.Satisfaction() || p.QueriesPerformed != pb.QueriesPerformed {
			t.Fatalf("provider %d diverged: δs %v vs %v, performed %d vs %d",
				i, p.Public.Satisfaction(), pb.Public.Satisfaction(), p.QueriesPerformed, pb.QueriesPerformed)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
