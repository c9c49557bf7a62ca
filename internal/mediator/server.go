package mediator

import (
	"context"
	"errors"
	"sync"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
)

// Server runs a mediator as a long-lived concurrent service — the live
// counterpart of Figure 1: consumers submit queries from any goroutine,
// one at a time (Mediate) or in batches (MediateBatch), and each call is
// one mediation turn under the server's lock: Algorithm 1 with intentions
// computed in-process, then scoring, ranking, allocation, and result
// notification. Mediations are serialized — the paper's system has one
// mediator, and the satisfaction windows are its bookkeeping.
type Server struct {
	med *Mediator
	pop *model.Population
	now func() float64

	mu     sync.Mutex
	closed bool
	// batch is the mediation turn's reusable working memory; guarded by mu.
	batch batchScratch
	// apply makes the server commit each allocation onto the selected
	// providers' queues (model.Provider.Assign) inside the mediation turn.
	// The discrete-event engine applies allocations itself; a serving
	// deployment wants the server to do it so provider load — and with it
	// the intentions of Definition 8 — reacts to the traffic it mediates.
	apply bool
}

// ErrServerClosed reports a Submit after Close.
var ErrServerClosed = errors.New("mediator: server closed")

// NewServer returns a server mediating over the population with the given
// strategy; now supplies the mediation clock (nil means wall-clock seconds
// since start). The timeout is ignored — no mediation path waits on a
// participant any more — and stays only because the frozen benchmark/
// passes one.
func NewServer(strategy allocator.Allocator, pop *model.Population, _ time.Duration, now func() float64) *Server {
	if now == nil {
		start := time.Now()
		now = func() float64 { return time.Since(start).Seconds() }
	}
	return &Server{med: New(strategy), pop: pop, now: now}
}

// SetMatchmaker replaces the matchmaking procedure (default nil: every alive
// provider).
func (s *Server) SetMatchmaker(m Matchmaker) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.med.Match = m
}

// SetApply makes the server enqueue each mediated query on its selected
// providers (off by default; see the apply field).
func (s *Server) SetApply(apply bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.apply = apply
}

// WithPopulation runs f on the server's population under the mediation
// lock, so f observes a consistent participant state with no mediation
// commit in flight. Observability snapshots read utilization and
// satisfaction gauges through it; f must only read, and must not call
// back into the server.
func (s *Server) WithPopulation(f func(*model.Population)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s.pop)
}

// Mediate allocates one query: a mediation turn of one, the same body
// MediateBatch runs. The returned Allocation is a copy the caller owns —
// safe to retain and to read while other goroutines mediate. Safe for
// concurrent use.
func (s *Server) Mediate(ctx context.Context, q *model.Query) (*Allocation, error) {
	var out [1]BatchResult
	s.mu.Lock()
	defer s.mu.Unlock()
	s.turn(ctx, []*model.Query{q}, out[:])
	if out[0].Err != nil {
		return nil, out[0].Err
	}
	a := out[0].Alloc
	return &Allocation{
		Query:    q,
		Pq:       append([]*model.Provider(nil), a.Pq...),
		CI:       append([]float64(nil), a.CI...),
		PI:       append([]float64(nil), a.PI...),
		Selected: append([]int(nil), a.Selected...),
	}, nil
}

// Close marks the server closed; subsequent Submits fail fast.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
