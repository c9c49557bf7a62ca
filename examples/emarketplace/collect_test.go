package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"sqlb"
)

type stubConsumer struct {
	value float64
	delay time.Duration
	err   error
}

func (s stubConsumer) Intention(ctx context.Context, _ *sqlb.Query, _ *sqlb.Provider) (float64, error) {
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return s.value, s.err
}

type stubProvider struct {
	value float64
	delay time.Duration
	err   error
}

func (s stubProvider) Intention(ctx context.Context, _ *sqlb.Query) (float64, error) {
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	return s.value, s.err
}

func collectFixture(t *testing.T, n int) (*sqlb.Population, *sqlb.Query) {
	t.Helper()
	cfg := sqlb.DefaultConfig()
	cfg.Consumers = 1
	cfg.Providers = n
	pop := sqlb.NewPopulation(cfg, 5)
	q := &sqlb.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: 1}
	return pop, q
}

func TestCollectAllAnswer(t *testing.T) {
	pop, q := collectFixture(t, 4)
	providers := make([]providerClient, 4)
	for i := range providers {
		providers[i] = stubProvider{value: 0.25 * float64(i)}
	}
	ci, pi, st := collect(context.Background(), time.Second, q, pop.Providers, stubConsumer{value: 0.7}, providers)
	if st != (collectStats{}) {
		t.Fatalf("full collection reported degraded stats: %+v", st)
	}
	for i := range ci {
		if ci[i] != 0.7 {
			t.Errorf("ci[%d] = %v, want 0.7", i, ci[i])
		}
		if math.Abs(pi[i]-0.25*float64(i)) > 1e-12 {
			t.Errorf("pi[%d] = %v, want %v", i, pi[i], 0.25*float64(i))
		}
	}
}

func TestCollectTimeoutFallsBackToDefault(t *testing.T) {
	pop, q := collectFixture(t, 3)
	providers := []providerClient{
		stubProvider{value: 0.9},
		stubProvider{value: 0.9, delay: 500 * time.Millisecond}, // too slow
		stubProvider{value: -0.3},
	}
	start := time.Now()
	_, pi, st := collect(context.Background(), 30*time.Millisecond, q, pop.Providers, stubConsumer{value: 0.5}, providers)
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("collect blocked %v past its timeout", elapsed)
	}
	if pi[0] != 0.9 || pi[2] != -0.3 {
		t.Errorf("fast providers lost: %v", pi)
	}
	if pi[1] != 0 {
		t.Errorf("slow provider should default to 0 (indifference), got %v", pi[1])
	}
	if st != (collectStats{timeouts: 1}) {
		t.Errorf("stats = %+v, want exactly the slow provider timed out", st)
	}
}

func TestCollectErrorsBecomeDefaults(t *testing.T) {
	pop, q := collectFixture(t, 2)
	providers := []providerClient{
		stubProvider{err: errors.New("unreachable")},
		stubProvider{value: 0.4},
	}
	_, pi, st := collect(context.Background(), time.Second, q, pop.Providers, stubConsumer{err: errors.New("boom")}, providers)
	if pi[0] != 0 {
		t.Errorf("failed provider should default, got %v", pi[0])
	}
	if pi[1] != 0.4 {
		t.Errorf("healthy provider lost: %v", pi[1])
	}
	// Two consumer answers and one provider answer errored; the accounting
	// is what stops silent degradation (each error was folded into
	// indifference).
	if st != (collectStats{errors: 3}) {
		t.Errorf("stats = %+v, want 3 errors, 0 timeouts", st)
	}
}

func TestCollectNilClients(t *testing.T) {
	pop, q := collectFixture(t, 2)
	ci, pi, _ := collect(context.Background(), 50*time.Millisecond, q, pop.Providers, nil, []providerClient{nil, nil})
	for i := range ci {
		if ci[i] != 0 || pi[i] != 0 {
			t.Errorf("nil clients should yield defaults, got ci=%v pi=%v", ci[i], pi[i])
		}
	}
}

func TestCollectCancelledContext(t *testing.T) {
	pop, q := collectFixture(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	providers := []providerClient{stubProvider{value: 1, delay: time.Hour}, stubProvider{value: 1, delay: time.Hour}}
	done := make(chan struct{})
	go func() {
		collect(ctx, time.Second, q, pop.Providers, stubConsumer{value: 1, delay: time.Hour}, providers)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("collect did not honor context cancellation")
	}
}

func TestCollectSanitizesGarbage(t *testing.T) {
	pop, q := collectFixture(t, 1)
	ci, pi, _ := collect(context.Background(), time.Second, q, pop.Providers,
		stubConsumer{value: 42}, []providerClient{stubProvider{value: math.NaN()}})
	if ci[0] != 10 {
		t.Errorf("absurd intention should cap at 10, got %v", ci[0])
	}
	if pi[0] != 0 {
		t.Errorf("NaN intention should become 0, got %v", pi[0])
	}
	// Legitimate raw Def 7/8 values below -1 pass through untouched.
	ci2, _, _ := collect(context.Background(), time.Second, q, pop.Providers,
		stubConsumer{value: -2.5}, []providerClient{stubProvider{value: 0.5}})
	if ci2[0] != -2.5 {
		t.Errorf("raw negative intention should pass, got %v", ci2[0])
	}
}
