package serving

import (
	"context"
	"errors"
	"testing"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
)

func smallConfig() Config {
	return Config{
		Model:      model.DefaultConfig().Scale(0.05), // 10 consumers, 20 providers
		Strategy:   allocator.NewSQLB(),
		TargetQPS:  400,
		Workers:    2,
		Batch:      8,
		QueueDepth: 256,
		Warmup:     30 * time.Millisecond,
		Measure:    250 * time.Millisecond,
		Seed:       11,
	}
}

// ledgerHolds asserts the report's accounting invariant: every measured
// arrival ended in exactly one of rejected, mediated, dropped or errors.
func ledgerHolds(t *testing.T, rep *Report) {
	t.Helper()
	if got := rep.Rejected + rep.Mediated + rep.Dropped + rep.Errors; got != rep.Submitted {
		t.Fatalf("ledger broken: rejected %d + mediated %d + dropped %d + errors %d = %d, want submitted %d",
			rep.Rejected, rep.Mediated, rep.Dropped, rep.Errors, got, rep.Submitted)
	}
}

func TestDriverSmoke(t *testing.T) {
	// Open-loop smoke run at small QPS: the driver must sustain the
	// schedule, produce ordered latency quantiles, and keep the
	// submitted = rejected + mediated + dropped + errors ledger exact.
	d, err := NewDriver(smallConfig())
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Mediated == 0 {
		t.Fatal("no mediations in the measure window")
	}
	ledgerHolds(t, rep)
	if !(rep.LatencyP50Ms <= rep.LatencyP95Ms && rep.LatencyP95Ms <= rep.LatencyP99Ms) {
		t.Fatalf("quantiles out of order: p50 %v p95 %v p99 %v",
			rep.LatencyP50Ms, rep.LatencyP95Ms, rep.LatencyP99Ms)
	}
	if rep.MediationsPerSec <= 0 {
		t.Fatalf("mediations/sec = %v", rep.MediationsPerSec)
	}
	// The traffic really hit the providers (SetApply): someone performed
	// queries.
	var performed uint64
	for _, p := range d.Population().Providers {
		performed += p.QueriesPerformed
	}
	if performed == 0 {
		t.Fatal("no provider performed any query; allocations were not applied")
	}
}

func TestDriverSingleQueryPath(t *testing.T) {
	// Batch=1 mediates every admitted arrival as a batch of one.
	cfg := smallConfig()
	cfg.Batch = 1
	cfg.TargetQPS = 150
	cfg.Measure = 150 * time.Millisecond
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Mediated == 0 {
		t.Fatal("no mediations on the Batch=1 path")
	}
}

// TestDriverWorkersShareBatchScratch is the result-lifetime contract under
// `make race`: four workers call MediateBatch on one server, whose
// allocations live in scratch the next batch rewrites, so a worker that
// read one after its call returned would race with the others. The drive is
// past what the pool sustains, which keeps every worker in back-to-back
// full batches; the ledger must still close.
func TestDriverWorkersShareBatchScratch(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	cfg.Batch = 16
	cfg.TargetQPS = 50000
	cfg.QueueDepth = 512
	cfg.Warmup = 0
	cfg.Measure = 200 * time.Millisecond
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Mediated < uint64(cfg.Workers*cfg.Batch) {
		t.Fatalf("only %d mediations: the workers never overlapped full batches", rep.Mediated)
	}
	ledgerHolds(t, rep)
	if rep.Errors != 0 {
		t.Fatalf("batched path reported %d errors", rep.Errors)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	// Admission control: with no workers draining (Run not called), the
	// bounded queue fills and the typed ErrOverloaded surfaces.
	cfg := smallConfig()
	cfg.QueueDepth = 4
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	pop := d.Population()
	for i := 0; i < cfg.QueueDepth; i++ {
		q := &model.Query{ID: uint64(i + 1), Consumer: pop.Consumers[0], Units: 130, N: 1}
		if err := d.Submit(q); err != nil {
			t.Fatalf("submit %d within queue depth: %v", i, err)
		}
	}
	q := &model.Query{ID: 99, Consumer: pop.Consumers[0], Units: 130, N: 1}
	if err := d.Submit(q); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into full queue: err = %v, want ErrOverloaded", err)
	}
}

func TestDriverOverloadRejects(t *testing.T) {
	// Drive far past what a tiny queue + slow draining admits: rejections
	// must show up in the report (backpressure is observable end to end).
	cfg := smallConfig()
	cfg.TargetQPS = 20000
	cfg.QueueDepth = 8
	cfg.Workers = 1
	cfg.Warmup = 0
	cfg.Measure = 120 * time.Millisecond
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Rejected == 0 {
		t.Fatalf("expected rejections under a 20k qps drive into a depth-8 queue; report: %+v", rep)
	}
}

func TestDriverConfigValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Strategy = nil
	if _, err := NewDriver(cfg); err == nil {
		t.Fatal("strategy-less config accepted")
	}
	cfg = smallConfig()
	cfg.TargetQPS = 0
	if _, err := NewDriver(cfg); err == nil {
		t.Fatal("zero QPS accepted")
	}
	cfg = smallConfig()
	cfg.Measure = 0
	if _, err := NewDriver(cfg); err == nil {
		t.Fatal("zero measure window accepted")
	}
}

func TestDriverContextCancel(t *testing.T) {
	cfg := smallConfig()
	cfg.Measure = 10 * time.Second // cancel cuts it short
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := d.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Run ignored cancellation for %v", elapsed)
	}
}

// TestDriverCancelBooksBacklogAsErrors: a run at Batch 1 driven far past
// what one worker sustains is cancelled with its queue full. The admitted
// backlog must be refused by the dead context and booked under Errors —
// not committed as mediations — with the ledger still exact, and a cut-short
// run is not a failed one.
func TestDriverCancelBooksBacklogAsErrors(t *testing.T) {
	cfg := smallConfig()
	cfg.Model = model.DefaultConfig() // |Pq| = 400, so one worker falls behind
	cfg.Workers = 1
	cfg.Batch = 1
	cfg.TargetQPS = 400000
	cfg.QueueDepth = 512
	cfg.Warmup = 0
	cfg.Measure = 10 * time.Second // cancel cuts it short
	d, err := NewDriver(cfg)
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep, err := d.Run(ctx)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ledgerHolds(t, rep)
	if rep.Mediated == 0 || rep.Rejected == 0 {
		t.Fatalf("fixture: %d mediated, %d rejected — the drive never filled the queue", rep.Mediated, rep.Rejected)
	}
	if rep.Errors == 0 {
		t.Fatalf("the backlog admitted before the cancel was not booked as errors: %+v", rep)
	}
}
