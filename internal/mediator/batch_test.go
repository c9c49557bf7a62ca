package mediator

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"sqlb/internal/allocator"
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

func TestMediateBatchPerQueryErrors(t *testing.T) {
	pop := newPop(t, 2, 4)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, func() float64 { return 0 })
	good := newQuery(pop, 1, 1)
	noConsumer := newQuery(pop, 2, 1)
	noConsumer.Consumer = nil
	unservable := newQuery(pop, 3, 1)
	unservable.Class = 99 // no provider advertises it under a class-bounded matchmaker
	srv.SetMatchmaker(matchFunc(func(p *model.Provider, class int) bool {
		return class < 2
	}))
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
// (a class-bounded one finds it no provider, a nil one matches everyone), the
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
			onlyDefined := matchFunc(func(_ *model.Provider, class int) bool {
				return class >= 0 && class < len(popSeq.Classes)
			})
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
			t.Fatalf("fixture: the nil matchmaker refused a hostile class: %v", wantErr[1])
		}
		if got := len(bat.batch.stamp); got != len(popBatch.Classes) {
			t.Fatalf("bounded=%v: per-class cache holds %d classes, population defines %d", bounded, got, len(popBatch.Classes))
		}
		if got, most := rowCount(&bat.med.rows), len(popBatch.Classes)*len(popBatch.Consumers); got > most {
			t.Fatalf("bounded=%v: consumer-intention store holds %d rows, bound is %d", bounded, got, most)
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
