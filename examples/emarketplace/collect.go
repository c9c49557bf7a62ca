package main

import (
	"context"
	"time"

	"sqlb"
)

// consumerClient is a remote or slow consumer endpoint asked for its
// intentions — in an e-marketplace deployment, a network call. The
// mediator evaluates Definitions 7 and 8 in-process for its own
// participants; this example stands in for sites outside it.
type consumerClient interface {
	// Intention returns the consumer's intention for allocating q to p.
	Intention(ctx context.Context, q *sqlb.Query, p *sqlb.Provider) (float64, error)
}

// providerClient is a provider endpoint asked for its intention to perform
// a query (Definition 8).
type providerClient interface {
	Intention(ctx context.Context, q *sqlb.Query) (float64, error)
}

// collectStats accounts for the answers a collection did not get: each
// errored or timed-out participant was folded into indifference (0), so
// the caller can tell a degraded mediation from a healthy one.
type collectStats struct {
	errors   int // answers that arrived as errors
	timeouts int // answers still outstanding when the timeout fired
}

// collect is lines 2-5 of Algorithm 1 for remote participants: it forks a
// request for the consumer's intention towards each provider of pq and, in
// parallel, one for each provider's intention towards q, and waits until
// all answers arrive or the timeout fires. Participants that do not answer
// in time count as indifferent (0, Section 2). providers is indexed like
// pq, and so are ci and pi. collect never blocks past the timeout and
// never leaks goroutines: stragglers finish into a buffered channel and
// exit.
func collect(ctx context.Context, timeout time.Duration, q *sqlb.Query, pq []*sqlb.Provider,
	consumer consumerClient, providers []providerClient) (ci, pi []float64, stats collectStats) {

	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	n := len(pq)
	ci = make([]float64, n)
	pi = make([]float64, n)

	type answer struct {
		provider bool
		idx      int
		v        float64
		err      error
	}
	expected := 0
	ch := make(chan answer, 2*n)
	for i := range pq {
		if consumer != nil {
			expected++
			go func(idx int) {
				v, err := consumer.Intention(ctx, q, pq[idx])
				ch <- answer{provider: false, idx: idx, v: v, err: err}
			}(i)
		}
		if i < len(providers) && providers[i] != nil {
			expected++
			go func(idx int) {
				v, err := providers[idx].Intention(ctx, q)
				ch <- answer{provider: true, idx: idx, v: v, err: err}
			}(i)
		}
	}

	for expected > 0 {
		select {
		case a := <-ch:
			expected--
			if a.err != nil {
				stats.errors++
				continue
			}
			if a.provider {
				pi[a.idx] = sanitize(a.v)
			} else {
				ci[a.idx] = sanitize(a.v)
			}
		case <-ctx.Done():
			stats.timeouts = expected
			return ci, pi, stats
		}
	}
	return ci, pi, stats
}

// sanitize guards against NaN and absurd magnitudes from misbehaving
// clients while preserving the raw Def 7/8 range that scoring needs (raw
// values legitimately reach about ±3 with ε = 1).
func sanitize(v float64) float64 {
	if v != v { // NaN
		return 0
	}
	if v > 10 {
		return 10
	}
	if v < -10 {
		return -10
	}
	return v
}
