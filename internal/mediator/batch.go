package mediator

import (
	"context"
	"errors"
	"fmt"

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

// batchScratch is the server-owned working memory Server.turn reuses
// across batches (a Mediate call is a batch of one). Each batch bumps the
// epoch; per-class vectors carry the epoch they were computed in, so
// "recompute this batch?" is one integer compare and nothing is cleared or
// reallocated between batches. Buffer capacities converge to the workload's
// high-water mark, after which a batch's only heap allocation is the
// BatchResult slice it returns.
type batchScratch struct {
	epoch uint64
	// pq/pi/deferred/id/stamp hold one entry per query class of the
	// population. The provider intentions of Definition 8 depend only on
	// (provider, class, clock) — not on the consumer — so one PI⃗ vector
	// serves every query of the class in the batch; id is Pq's content id
	// in the row store (ciRows). The pq buffers also isolate the batch from
	// the matchmaker: an index's posting list may be compacted in place by
	// a later turn's lazy prune, so the batch copies into storage it owns.
	pq       [][]*model.Provider
	pi       [][]float64
	deferred [][]float64
	id       []uint64
	stamp    []uint64
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

// memoizes reports whether the caches hold entries for class. One the
// population does not define — negative, or past its classes; only a
// hostile or mis-minted query carries it — is answered on fresh vectors
// instead, so the caches stay bounded by the population whatever the stream
// holds.
func (b *batchScratch) memoizes(class int) bool {
	return class >= 0 && class < len(b.stamp)
}

// providers returns Pq, the provider intentions PI⃗ for q, exact or
// deferred as providerIntentions leaves them, and Pq's content id,
// memoized per class for the batch.
func (b *batchScratch) providers(med *Mediator, pop *model.Population, now float64, q *model.Query) (pq []*model.Provider, pi, deferred []float64, id uint64) {
	k, memo := q.Class, b.memoizes(q.Class)
	if memo {
		if b.stamp[k] == b.epoch {
			return b.pq[k], b.pi[k], b.deferred[k], b.id[k]
		}
		pq, pi, deferred = b.pq[k][:0], b.pi[k], b.deferred[k]
	}
	pq = matchInto(med.Match, pq, q, pop)
	pi, deferred = med.providerIntentions(now, q.Class, pq, pi, deferred)
	id = med.rows.identify(q.Class, len(b.stamp), pq)
	if memo {
		b.pq[k], b.pi[k], b.deferred[k], b.id[k], b.stamp[k] = pq, pi, deferred, id, b.epoch
	}
	return pq, pi, deferred, id
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

// turn is the one mediation body of the server: Algorithm 1 for each query
// of qs in slice order at one clock reading, outcomes into out (indexed
// like qs). Intentions are computed in-process from the model's own state,
// and Definitions 7 and 8 clamp what they read of it. Callers hold s.mu.
func (s *Server) turn(ctx context.Context, qs []*model.Query, out []BatchResult) {
	if s.closed {
		for i := range out {
			out[i].Err = ErrServerClosed
		}
		return
	}
	b := &s.batch
	b.epoch++
	if b.stamp == nil {
		classes := len(s.pop.Classes)
		b.pq = make([][]*model.Provider, classes)
		b.pi = make([][]float64, classes)
		b.deferred = make([][]float64, classes)
		b.id = make([]uint64, classes)
		b.stamp = make([]uint64, classes)
	}
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
		pq, pi, deferred, id := b.providers(s.med, s.pop, now, q)
		if len(pq) == 0 {
			out[i].Err = fmt.Errorf("%w (query %d)", ErrNoProviders, q.ID)
			continue
		}
		ci, adq := s.med.rows.consumer(q, pq, id, &b.ci[i])
		alloc := &b.allocs[i]
		if err := s.med.allocateInto(alloc, now, s.pop, q, pq, id, ci, adq, pi, deferred); err != nil {
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
				pq[idx].Assign(now, q.Units)
			}
		}
		out[i].Alloc = alloc
	}
}
