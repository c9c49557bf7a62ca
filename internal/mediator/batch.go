package mediator

import (
	"context"
	"errors"

	"sqlb/internal/model"
)

// BatchResult is the outcome of one query within a MediateBatch call.
type BatchResult struct {
	// Alloc is the allocation; nil when Err is set. It points into
	// server-owned batch scratch — the Allocation itself and its
	// Pq/CI/PI/Selected — which the next mediation on this server
	// (MediateBatch or Mediate, from any goroutine) overwrites: a caller
	// reads it before anyone calls again, and callers that share a server
	// concurrently read only Err.
	Alloc *Allocation
	// Err is the per-query mediation error (ErrNoProviders for an empty
	// Pq, ErrServerClosed after Close, a validation error otherwise).
	Err error
}

// batchScratch is the result storage Server.turn reuses across batches (a
// Mediate call is a batch of one); the per-class gathers live in the
// mediator (Mediator.gathered). Buffer capacities converge to the
// workload's high-water mark, after which a batch's only heap allocation is
// the BatchResult slice it returns.
type batchScratch struct {
	// ci[i] backs the consumer intentions of the batch's query i when the
	// row store keeps no row for it.
	ci [][]float64
	// sel backs the per-query Selected copies: reset per batch, appended
	// per query. A regrow strands the old block with the earlier results
	// of the batch that reference it, so they stay intact.
	sel []int
	// allocs is the Allocation slab the results point into, reused from
	// batch to batch.
	allocs []Allocation
}

// MediateBatch mediates a batch of queries under one mediation turn: one
// lock acquisition, one matchmaking lookup and one provider-intention
// vector per distinct query class, consumer-intention rows from the
// mediator's row store (ciRows) — while the allocation commits (scoring,
// ranking, selection, result notification) still run per query in slice
// order, reading tracker state updated by the commits before them. The
// results are therefore identical to calling Mediate sequentially on the
// same queries at the same clock reading; the batch only amortizes the
// side-effect-free prefix of Algorithm 1. (Under SetApply the memoized
// provider intentions are a snapshot from the start of the batch: work
// enqueued by earlier queries of the same batch shows up in Definition 8's
// load term only from the next batch on — staleness bounded by one batch.)
//
// The returned allocations live in the server's batch scratch and are valid
// until the next mediation on this server (see BatchResult.Alloc);
// steady-state cost is one allocation per batch, the result slice,
// independent of |Pq|.
func (s *Server) MediateBatch(ctx context.Context, qs []*model.Query) []BatchResult {
	out := make([]BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.turn(ctx, qs, out)
	return out
}

// turn is the server's mediation turn: Algorithm 1 (Mediator.mediate) for
// each query of qs in slice order at one clock reading, outcomes into out
// (indexed like qs). Intentions are computed in-process from the model's
// own state, and Definitions 7 and 8 clamp what they read of it. Callers
// hold s.mu.
func (s *Server) turn(ctx context.Context, qs []*model.Query, out []BatchResult) {
	if s.closed {
		for i := range out {
			out[i].Err = ErrServerClosed
		}
		return
	}
	b := &s.batch
	s.med.epoch++
	b.sel = b.sel[:0]
	if cap(b.allocs) < len(qs) {
		b.allocs = make([]Allocation, len(qs))
		b.ci = append(b.ci, make([][]float64, len(qs)-len(b.ci))...)
	}
	b.allocs = b.allocs[:len(qs)]
	now := s.now()
	for i, q := range qs {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		if q == nil || q.Consumer == nil {
			out[i].Err = errors.New("mediator: query needs a consumer")
			continue
		}
		alloc := &b.allocs[i]
		if err := s.med.mediate(now, q, s.pop, &b.ci[i], alloc); err != nil {
			out[i].Err = err
			continue
		}
		// Copy the selection out of the mediator scratch before the next
		// query's commit overwrites it.
		start := len(b.sel)
		b.sel = append(b.sel, alloc.Selected...)
		alloc.Selected = b.sel[start:len(b.sel):len(b.sel)]
		if s.apply {
			for _, idx := range alloc.Selected {
				alloc.Pq[idx].Assign(now, q.Units)
			}
		}
		out[i].Alloc = alloc
	}
}
