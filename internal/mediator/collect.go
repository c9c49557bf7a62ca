package mediator

import (
	"context"
	"time"

	"sqlb/internal/model"
)

// ConsumerClient is a remote or slow consumer endpoint the mediator queries
// for intentions — in an e-marketplace deployment, a network call. Local
// participants never travel this road: the mediator evaluates Definitions 7
// and 8 for them in-process.
type ConsumerClient interface {
	// Intention returns the consumer's intention for allocating q to p.
	Intention(ctx context.Context, q *model.Query, p *model.Provider) (float64, error)
}

// ProviderClient is a provider endpoint queried for its intention to
// perform a query (Definition 8).
type ProviderClient interface {
	Intention(ctx context.Context, q *model.Query) (float64, error)
}

// Collector implements lines 2-5 of Algorithm 1: fork a request for the
// consumer's intention towards each provider and, in parallel, a request
// for each provider's intention towards the query; wait until all answers
// arrive or the timeout fires. Participants that do not answer in time are
// recorded with the Default intention (0 = indifference, Section 2).
type Collector struct {
	// Timeout bounds the wait (line 5 of Algorithm 1). Zero means 1s.
	Timeout time.Duration
	// Default is the intention assumed for non-answers (default 0).
	Default float64
}

// CollectStats accounts for the answers a collection did not get: each
// errored or timed-out participant was silently folded into the Default
// intention, degrading the mediation without leaving a trace. The serving
// report surfaces these so phantom "indifference" does not read as health.
type CollectStats struct {
	// Errors counts answers that arrived as errors (unreachable or
	// misbehaving participants).
	Errors int
	// Timeouts counts answers still outstanding when the timeout fired.
	Timeouts int
}

// Degraded reports whether any intention fell back to the Default.
func (s CollectStats) Degraded() bool { return s.Errors > 0 || s.Timeouts > 0 }

// Collect gathers the consumer's intention vector CI⃗_q and the providers'
// intention vector PI⃗_q concurrently. providers must be indexed like pq;
// the returned slices are indexed alike. Collect never blocks past the
// timeout and never leaks goroutines (stragglers finish into a buffered
// channel and exit). The stats account for every answer that fell back to
// the Default intention.
func (c *Collector) Collect(ctx context.Context, q *model.Query, pq []*model.Provider,
	consumer ConsumerClient, providers []ProviderClient) (ci, pi []float64, stats CollectStats) {

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	n := len(pq)
	ci = make([]float64, n)
	pi = make([]float64, n)
	for i := range ci {
		ci[i] = c.Default
		pi[i] = c.Default
	}

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
				stats.Errors++
				continue
			}
			if a.provider {
				pi[a.idx] = sanitize(a.v)
			} else {
				ci[a.idx] = sanitize(a.v)
			}
		case <-ctx.Done():
			stats.Timeouts = expected
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
