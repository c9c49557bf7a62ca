package mediator

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
)

func TestServerMediateBasics(t *testing.T) {
	pop := newPop(t, 2, 6)
	srv := NewServer(allocator.NewSQLB(), pop, 100*time.Millisecond, func() float64 { return 1 })
	alloc, err := srv.Mediate(context.Background(), newQuery(pop, 1, 2))
	if err != nil {
		t.Fatalf("Mediate: %v", err)
	}
	if len(alloc.Selected) != 2 {
		t.Fatalf("selected %d providers, want 2", len(alloc.Selected))
	}
	// Bookkeeping happened: every provider saw the proposal.
	for _, p := range pop.Providers {
		if p.Public.Proposed() != 1 {
			t.Errorf("provider %d proposals = %d, want 1", p.ID, p.Public.Proposed())
		}
	}
}

func TestServerConcurrentSubmissions(t *testing.T) {
	pop := newPop(t, 4, 12)
	srv := NewServer(allocator.NewSQLB(), pop, 200*time.Millisecond, nil)
	const queries = 64
	var wg sync.WaitGroup
	var failures atomic.Int64
	var selected atomic.Int64
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := newQuery(pop, uint64(i+1), 1)
			q.Consumer = pop.Consumers[i%len(pop.Consumers)]
			alloc, err := srv.Mediate(context.Background(), q)
			if err != nil {
				failures.Add(1)
				return
			}
			selected.Add(int64(len(alloc.Selected)))
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d mediations failed", failures.Load())
	}
	if selected.Load() != queries {
		t.Fatalf("selected %d providers total, want %d", selected.Load(), queries)
	}
	// Every provider saw every query (notification of mediation results).
	for _, p := range pop.Providers {
		if got := p.Public.Proposed(); got != queries {
			t.Errorf("provider %d proposals = %d, want %d", p.ID, got, queries)
		}
	}
	// Consumers logged their own queries.
	total := 0
	for _, c := range pop.Consumers {
		total += c.Tracker.Queries()
	}
	if total != queries {
		t.Errorf("consumer-side query records = %d, want %d", total, queries)
	}
}

func TestServerClose(t *testing.T) {
	pop := newPop(t, 1, 3)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, nil)
	srv.Close()
	if _, err := srv.Mediate(context.Background(), newQuery(pop, 1, 1)); err != ErrServerClosed {
		t.Fatalf("err = %v, want ErrServerClosed", err)
	}
}

func TestServerRejectsBadQueries(t *testing.T) {
	pop := newPop(t, 1, 3)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, nil)
	if _, err := srv.Mediate(context.Background(), nil); err == nil {
		t.Fatal("nil query accepted")
	}
	q := newQuery(pop, 1, 1)
	q.Consumer = nil
	if _, err := srv.Mediate(context.Background(), q); err == nil {
		t.Fatal("consumer-less query accepted")
	}
}

func TestServerNoProviders(t *testing.T) {
	pop := newPop(t, 1, 2)
	for _, p := range pop.Providers {
		p.Depart(model.ReasonOutage)
	}
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, nil)
	if _, err := srv.Mediate(context.Background(), newQuery(pop, 1, 1)); err == nil {
		t.Fatal("expected ErrNoProviders")
	}
}

func TestServerCustomMatchmaker(t *testing.T) {
	pop := newPop(t, 1, 6)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, nil)
	srv.SetMatchmaker(matchFunc(func(p *model.Provider, class int) bool {
		return p.ID < 2
	}))
	alloc, err := srv.Mediate(context.Background(), newQuery(pop, 1, 5))
	if err != nil {
		t.Fatalf("Mediate: %v", err)
	}
	if len(alloc.Pq) != 2 {
		t.Errorf("Pq = %d, want 2 capable providers", len(alloc.Pq))
	}
}

// mutatingMatcher returns its internal slice and compacts it in place on
// the next call — the aliasing behaviour of an indexed matchmaker's lazy
// prune, distilled.
type mutatingMatcher struct {
	list []*model.Provider
}

func (m *mutatingMatcher) Match(_ *model.Query, _ *model.Population) []*model.Provider {
	kept := m.list[:0]
	for _, p := range m.list {
		if p.Alive() {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(m.list); i++ {
		m.list[i] = nil
	}
	m.list = kept
	return kept
}

func TestServerAllocationSurvivesMatchmakerMutation(t *testing.T) {
	// An Allocation returned by Mediate must stay valid after a later
	// mediation prunes the matchmaker's internal list (the server copies
	// Pq before it escapes the lock).
	pop := newPop(t, 1, 4)
	srv := NewServer(allocator.NewSQLB(), pop, 50*time.Millisecond, nil)
	srv.SetMatchmaker(&mutatingMatcher{list: append([]*model.Provider(nil), pop.Providers...)})

	first, err := srv.Mediate(context.Background(), newQuery(pop, 1, 1))
	if err != nil {
		t.Fatalf("Mediate: %v", err)
	}
	want := append([]*model.Provider(nil), first.Pq...)

	// A provider fails unannounced; the next mediation prunes in place.
	pop.Providers[0].Depart(model.ReasonOutage)
	if _, err := srv.Mediate(context.Background(), newQuery(pop, 2, 1)); err != nil {
		t.Fatalf("second Mediate: %v", err)
	}

	for i, p := range first.Pq {
		if p == nil {
			t.Fatalf("retained Allocation.Pq[%d] nil-ed by later prune", i)
		}
		if p != want[i] {
			t.Fatalf("retained Allocation.Pq[%d] shifted by later prune", i)
		}
	}
	if sel := first.SelectedProviders(); len(sel) != 1 || sel[0] == nil {
		t.Fatal("SelectedProviders corrupted on the retained allocation")
	}
}

// TestAllocateValidation drives the allocation commit's refusals through
// the entrances that reach it. (Intention vectors sized unlike Pq — the third
// refusal, back when callers could hand the commit vectors they had gathered
// themselves — cannot be built from outside any more: every entrance sizes
// the vectors from the Pq it matched.)
func TestAllocateValidation(t *testing.T) {
	pop := newPop(t, 1, 3)
	q := newQuery(pop, 1, 1)
	committed := func() int {
		n := pop.Consumers[0].Tracker.Queries()
		for _, p := range pop.Providers {
			n += p.Public.Proposed()
		}
		return n
	}
	before := committed()
	if _, err := (&Mediator{}).Allocate(0, q, pop); err == nil {
		t.Fatal("strategy-less mediator accepted")
	}
	bare := NewServer(nil, pop, 0, nil)
	if _, err := bare.Mediate(context.Background(), q); err == nil {
		t.Fatal("strategy-less server accepted a query")
	}
	if res := bare.MediateBatch(context.Background(), []*model.Query{q}); res[0].Err == nil || res[0].Alloc != nil {
		t.Fatal("strategy-less server accepted a batch")
	}
	for _, p := range pop.Providers {
		p.Depart(model.ReasonOutage)
	}
	if _, err := New(allocator.NewSQLB()).Allocate(0, q, pop); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("empty Pq: err = %v, want ErrNoProviders", err)
	}
	if got := committed(); got != before {
		t.Fatalf("refused mediations recorded %d tracker entries", got-before)
	}
}

// TestDeadContextCommitsNothing: a mediation asked for under a cancelled or
// expired context is refused with the context's error by both entrances —
// no allocation, no entry in any satisfaction window — and leaves the
// mediation lock free for the next caller. (Mediate used to fall back to
// all-zero default intentions and commit an allocation computed from them.)
func TestDeadContextCommitsNothing(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, release := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer release()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"deadline exceeded", expired, context.DeadlineExceeded},
	} {
		pop := newPop(t, 2, 6)
		srv := NewServer(allocator.NewSQLB(), pop, 0, func() float64 { return 1 })
		srv.SetApply(true)
		q := newQuery(pop, 1, 2)
		queries := q.Consumer.Tracker.Queries()

		alloc, err := srv.Mediate(tc.ctx, q)
		res := srv.MediateBatch(tc.ctx, []*model.Query{q, q})
		if alloc != nil || !errors.Is(err, tc.want) {
			t.Fatalf("%s: Mediate = %v, %v; want nil, %v", tc.name, alloc, err, tc.want)
		}
		for i, r := range res {
			if r.Alloc != nil || r.Err != err {
				t.Fatalf("%s: MediateBatch[%d] = %v, %v; Mediate's error was %v", tc.name, i, r.Alloc, r.Err, err)
			}
		}
		for _, p := range pop.Providers {
			if p.Public.Proposed() != 0 || p.Private.Proposed() != 0 || p.QueriesPerformed != 0 {
				t.Fatalf("%s: provider %d saw %d proposals and performed %d queries of a refused mediation",
					tc.name, p.ID, p.Public.Proposed(), p.QueriesPerformed)
			}
		}
		if got := q.Consumer.Tracker.Queries(); got != queries {
			t.Fatalf("%s: consumer recorded %d queries of a refused mediation", tc.name, got-queries)
		}
		// The lock is free and the server healthy.
		if alloc, err := srv.Mediate(context.Background(), q); err != nil || len(alloc.Selected) != 2 {
			t.Fatalf("%s: healthy Mediate after the refusals: %v, %v", tc.name, alloc, err)
		}
		if r := srv.MediateBatch(context.Background(), []*model.Query{q})[0]; r.Err != nil {
			t.Fatalf("%s: healthy MediateBatch after the refusals: %v", tc.name, r.Err)
		}
		if got := pop.Providers[0].Public.Proposed(); got != 2 {
			t.Fatalf("%s: provider 0 saw %d proposals after two healthy mediations", tc.name, got)
		}
	}
}

// TestServerMediateResultsAreRetainable is Mediate's durability contract
// under concurrency (run under make race): four callers keep every result
// they get, read it at once — while the others are mediating — and again
// after everyone finished and one more batch reused the server's scratch.
// A Mediate that handed out server-owned memory fails here twice over: the
// race detector sees the unlocked read against a later turn's write, and
// the re-read finds another mediation's providers.
func TestServerMediateResultsAreRetainable(t *testing.T) {
	const callers, each = 4, 64
	pop := newPop(t, 4, 12)
	srv := NewServer(allocator.NewSQLB(), pop, 0, nil)
	srv.SetApply(true)
	type kept struct {
		alloc *Allocation
		ids   []int // the selected providers as read right after the call
	}
	results := make([][]kept, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				q := newQuery(pop, uint64(g*each+i+1), 1+i%3)
				q.Consumer = pop.Consumers[(g+i)%len(pop.Consumers)]
				alloc, err := srv.Mediate(context.Background(), q)
				if err != nil {
					t.Errorf("caller %d query %d: %v", g, i, err)
					return
				}
				k := kept{alloc: alloc}
				for _, idx := range alloc.Selected {
					k.ids = append(k.ids, alloc.Pq[idx].ID)
				}
				results[g] = append(results[g], k)
			}
		}(g)
	}
	wg.Wait()
	if r := srv.MediateBatch(context.Background(), mintQueries(pop, 8)); r[0].Err != nil {
		t.Fatalf("closing batch: %v", r[0].Err)
	}
	for g, ks := range results {
		for i, k := range ks {
			a := k.alloc
			if len(a.CI) != len(a.Pq) || len(a.PI) != len(a.Pq) || len(a.Selected) != 1+i%3 {
				t.Fatalf("caller %d query %d: retained allocation has |Pq| %d, |CI| %d, |PI| %d, %d selected",
					g, i, len(a.Pq), len(a.CI), len(a.PI), len(a.Selected))
			}
			for j, idx := range a.Selected {
				if p := a.Pq[idx]; p == nil || p.ID != k.ids[j] {
					t.Fatalf("caller %d query %d: retained selection %d changed after later mediations", g, i, j)
				}
			}
		}
	}
}
