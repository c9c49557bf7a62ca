package mediator

import (
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/matchmaking"
	"sqlb/internal/model"
	"sqlb/internal/randx"
)

// TestConsumerRowsAreShared checks the keys at work on the paper's
// population, where every class has the same Pq: one row per consumer
// whatever the class, kept across mediations, and recomputed (counted in
// Definition 7 evaluations) only when an input changes.
func TestConsumerRowsAreShared(t *testing.T) {
	pop := model.NewPopulation(model.DefaultConfig(), randx.New(9), 0)
	med := New(allocator.NewSQLB())
	med.Match = matchmaking.BuildIndex(pop)
	c := pop.Consumers[0]
	mediate := func(class int) {
		t.Helper()
		if _, err := med.Allocate(1, &model.Query{ID: 1, Consumer: c, Class: class, Units: 130, N: 1}, pop); err != nil {
			t.Fatal(err)
		}
	}
	evals := func(what string, want uint64) {
		t.Helper()
		if med.rows.evals != want {
			t.Fatalf("%s: %d Definition 7 evaluations, want %d", what, med.rows.evals, want)
		}
	}
	mediate(0)
	mediate(1)
	evals("both classes", 400)
	if n := rowCount(&med.rows); n != 1 {
		t.Fatalf("%d rows for one consumer over one Pq", n)
	}
	c.SetPreference(3, 0.2)
	mediate(1)
	evals("after SetPreference", 800)
	pop.Providers[7].Reputation = 0.1
	mediate(0)
	evals("after a reputation write", 1200)
	c.Upsilon = 0.5
	mediate(0)
	evals("after a υ write", 1600)
	mediate(1)
	evals("unchanged", 1600)
}

// rowCount is the number of rows the store holds over all Pq ids.
func rowCount(s *ciRows) int {
	n := 0
	for _, group := range s.rows {
		n += len(group)
	}
	return n
}
