package satisfaction

import "math"

// QueryAdequation computes δa(c,q) (Equation 1): the mapped average of the
// consumer's shown intentions towards the whole set Pq of providers able to
// treat q. It answers "how well does the system correspond to my
// expectations for this query?". Returns 0.5 (indifference) for an empty Pq;
// the simulator only issues feasible queries, so that case is defensive.
func QueryAdequation(intentions []float64) float64 {
	if len(intentions) == 0 {
		return 0.5
	}
	sum := 0.0
	for _, ci := range intentions {
		sum += Clamp(ci)
	}
	return (sum/float64(len(intentions)) + 1) / 2
}

// QuerySatisfaction computes δs(c,q) (Equation 2): the mapped sum of the
// consumer's intentions towards the providers that actually got the query,
// divided by q.n — the number of results the consumer desired. Receiving
// fewer than n results therefore caps the attainable satisfaction, exactly
// as the paper's eWine discussion motivates. n < 1 is treated as 1.
func QuerySatisfaction(selectedIntentions []float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	sum := 0.0
	for _, ci := range selectedIntentions {
		sum += Clamp(ci)
	}
	return (sum/float64(n) + 1) / 2
}

// ConsumerTracker maintains the Section 3.1 characteristics of one consumer
// over its k last issued queries (the set IQ_c^k). The two windows are
// embedded by value so a population of trackers is a single dense array;
// only their ring buffers live elsewhere (in an Arena when one is used).
type ConsumerTracker struct {
	adequation   Window
	satisfaction Window
}

// NewConsumerTracker returns a tracker with window size k, initial
// characteristic value prior (0.5 in the paper's setup) and priorSamples
// virtual prior samples.
func NewConsumerTracker(k int, prior float64, priorSamples int) *ConsumerTracker {
	t := &ConsumerTracker{}
	t.Init(nil, k, prior, priorSamples)
	return t
}

// Init (re)initializes a tracker in place, carving both ring buffers from
// the arena (nil arena → plain allocations). It lets population builders
// lay trackers out in bulk arrays instead of allocating one by one.
func (t *ConsumerTracker) Init(a *Arena, k int, prior float64, priorSamples int) {
	t.adequation.Init(a, k, prior, priorSamples)
	t.satisfaction.Init(a, k, prior, priorSamples)
}

// RecordAllocation records one query allocation: the consumer's intentions
// towards every provider in Pq, the subset of indexes that received the
// query, and the desired number of results q.n.
func (t *ConsumerTracker) RecordAllocation(intentions []float64, selected []int, n int) {
	t.RecordAllocationWith(QueryAdequation(intentions), intentions, selected, n)
}

// RecordAllocationWith is RecordAllocation given adequation, Equation 1 of
// intentions, by a caller that keeps it. The satisfaction sum (Equation 2)
// is folded inline — this sits on the mediation hot path and must not
// allocate.
func (t *ConsumerTracker) RecordAllocationWith(adequation float64, intentions []float64, selected []int, n int) {
	t.adequation.Push(adequation)
	if n < 1 {
		n = 1
	}
	sum := 0.0
	for _, idx := range selected {
		if idx >= 0 && idx < len(intentions) {
			sum += Clamp(intentions[idx])
		}
	}
	t.satisfaction.Push((sum/float64(n) + 1) / 2)
}

// Adequation returns δa(c) (Definition 1) ∈ [0,1].
func (t *ConsumerTracker) Adequation() float64 { return t.adequation.Mean() }

// Satisfaction returns δs(c) (Definition 2) ∈ [0,1].
func (t *ConsumerTracker) Satisfaction() float64 { return t.satisfaction.Mean() }

// AllocationSatisfaction returns δas(c) = δs(c)/δa(c) (Definition 3)
// ∈ [0,∞]. A value > 1 means the allocation method works well for the
// consumer; < 1 means the method punishes it; 1 is neutral. When both δs
// and δa are 0 the method is vacuously neutral and 1 is returned; when only
// δa is 0, +Inf is returned as the definition's upper bound.
func (t *ConsumerTracker) AllocationSatisfaction() float64 {
	return allocationSatisfaction(t.Satisfaction(), t.Adequation())
}

// Queries returns the number of query allocations recorded (≤ k).
func (t *ConsumerTracker) Queries() int { return t.adequation.Len() }

func allocationSatisfaction(sat, adq float64) float64 {
	if adq == 0 {
		if sat == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return sat / adq
}
