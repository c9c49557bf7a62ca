package sim

import (
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/scenario"
	"sqlb/internal/workload"
)

// emptyAllocator is a strategy that selects nobody — the legal outcome that
// used to leak an inflight entry with remaining=0.
type emptyAllocator struct{}

func (emptyAllocator) Name() string                      { return "empty" }
func (emptyAllocator) Allocate(*allocator.Request) []int { return nil }

func TestEmptySelectionCountsAsDrop(t *testing.T) {
	// Regression: an allocator returning an empty Selected set registered
	// an inflight entry no completion event ever deleted, so the query
	// counted as issued but never completed nor dropped.
	opts := smallOptions(emptyAllocator{}, 0.5, 200)
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if res.IssuedQueries == 0 {
		t.Fatal("no queries issued; test needs arrivals")
	}
	if res.CompletedQueries != 0 {
		t.Fatalf("completed = %d, want 0 (nobody selected)", res.CompletedQueries)
	}
	if res.DroppedQueries != res.IssuedQueries {
		t.Fatalf("dropped = %d, want %d (every empty selection is a drop)",
			res.DroppedQueries, res.IssuedQueries)
	}
	if res.InFlightAtEnd != 0 {
		t.Fatalf("in-flight at end = %d, want 0 (the leak)", res.InFlightAtEnd)
	}
}

// TestQueryAccountingInvariant pins the ledger on a normal run:
// Issued = Completed + Dropped + InFlightAtEnd.
func TestQueryAccountingInvariant(t *testing.T) {
	opts := smallOptions(allocator.NewSQLB(), 0.9, 300)
	opts.Workload = workload.Constant(0.9)
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	got := res.CompletedQueries + res.DroppedQueries + uint64(res.InFlightAtEnd)
	if got != res.IssuedQueries {
		t.Fatalf("completed %d + dropped %d + inflight %d = %d, want issued %d",
			res.CompletedQueries, res.DroppedQueries, res.InFlightAtEnd, got, res.IssuedQueries)
	}
	if res.InFlightAtEnd == 0 && res.CompletedQueries == 0 {
		t.Fatal("degenerate run: nothing completed or in flight")
	}
}

// TestShardedQueryAccountingInvariant pins the same ledger under churn
// waves, with a selecting strategy and the empty-selection regression
// shape, so no outage or rejoin edge leaks or double-counts a query. The
// name dates from the per-event sharded engine; the check is serial now.
func TestShardedQueryAccountingInvariant(t *testing.T) {
	for _, strat := range []struct {
		name string
		a    allocator.Allocator
	}{{"sqlb", allocator.NewSQLB()}, {"empty-selection", emptyAllocator{}}} {
		opts := smallOptions(strat.a, 0.9, 300)
		opts.Scenario = &scenario.Scenario{Name: "churn", Waves: []scenario.Wave{
			{Time: 100, Kind: scenario.WaveOutage, Fraction: 0.5},
			{Time: 200, Kind: scenario.WaveRejoin, Fraction: 1},
		}}
		eng, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res := eng.Run()
		got := res.CompletedQueries + res.DroppedQueries + uint64(res.InFlightAtEnd)
		if got != res.IssuedQueries {
			t.Fatalf("%s: completed %d + dropped %d + inflight %d = %d, want issued %d",
				strat.name, res.CompletedQueries, res.DroppedQueries,
				res.InFlightAtEnd, got, res.IssuedQueries)
		}
	}
}
