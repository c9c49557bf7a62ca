// Package mediator implements the mediation layer of Figure 1 and
// Algorithm 1: matchmaking (finding Pq), obtaining the consumer's and the
// providers' intentions (computed in-process for local participants;
// Collector gathers them concurrently with a timeout from remote ones),
// driving the pluggable allocation strategy, and notifying every provider
// in Pq of the mediation result so that the satisfaction windows of
// Section 3 stay current.
package mediator

import (
	"errors"
	"fmt"
	"math"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/model"
)

// ErrNoProviders reports a query for which matchmaking found no provider
// (Pq = ∅). The paper only considers feasible queries; the simulator
// counts such a query as dropped — match with errors.Is, since Allocate
// wraps it with the query ID. Under heterogeneous capabilities this is a
// normal outcome (a class every specialist skipped), not a bug.
var ErrNoProviders = errors.New("mediator: no provider can treat the query")

// Matchmaker finds the set Pq of providers able to treat a query (line 1
// of Algorithm 1). The paper assumes a sound and complete matchmaking
// procedure (Section 2, refs [11,14]) and, in the experiments, that every
// provider can perform every query. Implementations must return Pq in
// ascending provider-ID order so allocation tie-breaks — and therefore
// whole simulations — do not depend on which matchmaker produced the set.
type Matchmaker interface {
	// Match returns the alive providers able to treat q, in ascending ID
	// order.
	Match(q *model.Query, pop *model.Population) []*model.Provider
}

// BufferedMatchmaker is the allocation-free variant of Matchmaker: MatchInto
// appends the matchmade set to buf (reusing its capacity) instead of
// allocating a fresh slice per query. The mediator's fast path probes for it
// and lends its own scratch buffer; the ordering contract is the same as
// Match's. A matchmaker without it (the inverted index) has its answer
// copied into the same buffer (see matchInto).
type BufferedMatchmaker interface {
	Matchmaker
	// MatchInto appends the alive providers able to treat q to buf and
	// returns the extended slice, in ascending provider-ID order.
	MatchInto(buf []*model.Provider, q *model.Query, pop *model.Population) []*model.Provider
}

// AllProviders is the experimental-setup matchmaker: every provider still
// registered to the mediator can treat every query.
type AllProviders struct{}

// Match implements Matchmaker.
func (AllProviders) Match(_ *model.Query, pop *model.Population) []*model.Provider {
	return pop.AliveProviders()
}

// MatchInto implements BufferedMatchmaker.
func (AllProviders) MatchInto(buf []*model.Provider, _ *model.Query, pop *model.Population) []*model.Provider {
	for _, p := range pop.Providers {
		if p.Alive {
			buf = append(buf, p)
		}
	}
	return buf
}

// CapabilityMatcher matches on a per-provider capability predicate; used by
// examples where providers serve only some query classes.
type CapabilityMatcher struct {
	// Capable reports whether the provider can treat queries of the class.
	Capable func(p *model.Provider, queryClass int) bool
}

// Match implements Matchmaker.
func (m CapabilityMatcher) Match(q *model.Query, pop *model.Population) []*model.Provider {
	return m.MatchInto(make([]*model.Provider, 0, len(pop.Providers)), q, pop)
}

// MatchInto implements BufferedMatchmaker.
func (m CapabilityMatcher) MatchInto(buf []*model.Provider, q *model.Query, pop *model.Population) []*model.Provider {
	for _, p := range pop.Providers {
		if p.Alive && (m.Capable == nil || m.Capable(p, q.Class)) {
			buf = append(buf, p)
		}
	}
	return buf
}

// ByCapability returns the naive sound-and-complete matchmaker over the
// providers' advertised capability sets (model.Provider.CanServe): a full
// O(|P|) population scan per query. It is the reference the indexed
// matchmaker (internal/matchmaking) is property-tested against, and the
// baseline its benchmarks beat.
func ByCapability() CapabilityMatcher {
	return CapabilityMatcher{Capable: func(p *model.Provider, queryClass int) bool {
		return p.CanServe(queryClass)
	}}
}

// Allocation is the outcome of mediating one query.
type Allocation struct {
	// Query is the mediated query.
	Query *model.Query
	// Pq is the matchmade provider set. When obtained from Mediator.
	// Allocate it aliases mediator scratch (kept allocation-free for the
	// simulator's hot path) and is only valid until the next mediation on
	// that mediator — as is the whole Allocation on that path; callers that
	// retain providers past that point must copy (SelectedProviders does). Allocations
	// returned by Server.Mediate carry their own copies and are safe to
	// retain; Server.MediateBatch results stay valid until the next
	// mediation on that server, from any caller (see BatchResult.Alloc).
	Pq []*model.Provider
	// CI and PI are the raw intentions of Definitions 7 and 8, indexed
	// like Pq; they extend below -1, and the satisfaction windows record
	// their clamp to [-1,1], Section 2's expressed range. CI is exact; it
	// may be a row the mediator keeps across mediations, so it is read-only.
	// PI[i] is Definition 8's exact bits whenever it is > -1 or the
	// strategy consulted it; otherwise it is an upper bound ≤ -1 of them,
	// and its clamp is -1 either way. No selection, score or window
	// depends on which of the two a slot holds.
	CI []float64
	PI []float64
	// Selected are the indexes into Pq that got the query, best first
	// (All⃗oc[p] = 1 for these, 0 for the rest).
	Selected []int
}

// Degraded is always false: every mediation path computes its intentions
// in-process. Kept only because the frozen benchmark/ calls it.
func (a *Allocation) Degraded() bool { return false }

// SelectedProviders returns the providers that got the query, best first.
func (a *Allocation) SelectedProviders() []*model.Provider {
	out := make([]*model.Provider, len(a.Selected))
	for i, idx := range a.Selected {
		out[i] = a.Pq[idx]
	}
	return out
}

// Mediator wires a matchmaker and an allocation strategy.
type Mediator struct {
	// Strategy is the query-allocation method under test.
	Strategy allocator.Allocator
	// Match is the matchmaking procedure; nil means AllProviders.
	Match Matchmaker

	// scratch holds the mediator's reusable per-mediation buffers. A
	// mediator serializes its mediations (the engine's event loop, the
	// server's mu), so one set suffices.
	scratch medScratch
	// rows keeps consumer-intention rows across mediations, for Allocate
	// and the server's turns alike.
	rows ciRows
}

// medScratch is the reusable working memory of one mediator: the intention,
// satisfaction, and matchmade vectors of the current mediation, the
// epoch-stamped selected-set marks, the strategy's buffer pool, and the
// request/allocation shells handed out by the fast path. Everything here is
// sized once at the population's high-water mark and then recycled, which
// is what takes the steady-state mediation to zero heap allocations.
type medScratch struct {
	strat    core.Scratch // lent to the strategy via Request.Scratch
	pq       []*model.Provider
	ci       []float64
	pi       []float64
	deferred []float64 // see lazyPI
	lazy     lazyPI
	provSat  []float64
	selStamp []uint64 // selStamp[i] == epoch ⇔ Pq[i] selected this mediation
	epoch    uint64
	req      allocator.Request
	alloc    Allocation
}

// growFloats returns buf resized to n, reallocating only on capacity growth.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// lazyPI is the core.Resolver of the mediation in hand. deferred[i] is what
// Provider.IntentionOrBound said of slot i: the load reading pi[i] was
// bounded at, or model.Exact. Resolving at that reading gives the value a
// gathering loop without bounds would have written, even when an earlier
// query of the batch has since been assigned to the provider. In a batch pi
// and deferred are the class's shared vectors, so what one query resolves
// the next ones of its class find exact.
type lazyPI struct {
	pq       []*model.Provider
	pi       []float64
	deferred []float64
	class    int
}

// Resolve implements core.Resolver.
func (l *lazyPI) Resolve(i int) {
	if load := l.deferred[i]; load >= 0 {
		l.deferred[i] = model.Exact
		l.pi[i] = l.pq[i].IntentionAt(l.class, load)
	}
}

// New returns a mediator using the given strategy and the all-providers
// matchmaker.
func New(strategy allocator.Allocator) *Mediator {
	return &Mediator{Strategy: strategy, Match: AllProviders{}}
}

// Allocate mediates one query at the given time: matchmaking, intention
// gathering (lines 2-5 of Algorithm 1, computed synchronously here — see
// Collector for the fork/join variant remote participants need), allocation
// (lines 6-10),
// and result notification (recording into every participant's satisfaction
// windows). The strategy sees only public information: expressed intentions
// and intention-based satisfactions.
//
// This is the simulator's hot path and allocates nothing in steady state:
// the returned Allocation and every slice it carries live in the mediator's
// scratch and are valid only until the next mediation on this mediator.
// Callers that retain anything past that point must copy (SelectedProviders
// does); Server.Mediate returns durable allocations instead.
func (m *Mediator) Allocate(now float64, q *model.Query, pop *model.Population) (*Allocation, error) {
	sc := &m.scratch
	sc.pq = matchInto(m.Match, sc.pq[:0], q, pop)
	pq := sc.pq
	if len(pq) == 0 {
		return nil, fmt.Errorf("%w (query %d)", ErrNoProviders, q.ID)
	}
	sc.pi, sc.deferred = m.providerIntentions(now, q.Class, pq, sc.pi, sc.deferred)
	ci, adq := m.rows.consumer(q, pq, m.rows.identify(q.Class, len(pop.Classes), pq), &sc.ci)
	if err := m.allocateInto(&sc.alloc, now, q, pq, ci, adq, sc.pi, sc.deferred); err != nil {
		return nil, err
	}
	return &sc.alloc, nil
}

// matchInto appends Pq for q to buf (line 1 of Algorithm 1): through
// MatchInto when the matchmaker has it, else by copying Match's answer.
// Either way Pq lives in storage the caller owns, so a later lazy prune of
// an index posting list cannot reach into a mediation in progress. A nil
// matchmaker is AllProviders.
func matchInto(match Matchmaker, buf []*model.Provider, q *model.Query, pop *model.Population) []*model.Provider {
	if match == nil {
		match = AllProviders{}
	}
	if bm, ok := match.(BufferedMatchmaker); ok {
		return bm.MatchInto(buf, q, pop)
	}
	return append(buf, match.Match(q, pop)...)
}

// providerIntentions fills pi and deferred, resized to len(pq), with
// Definition 8 for every provider of pq (lines 2-5 of Algorithm 1, the
// provider half). It is the one provider gather of every mediation path:
// Allocate calls it per query, the batch once per class and turn.
//
// The vector carries the *raw* definition values, which extend below -1
// (Figure 2's surface reaches -2.5). Definition 9's negative branch needs
// that depth: an overutilized provider the consumer loves must eventually
// rank below a willing provider the consumer is lukewarm about, or load
// would keep piling onto favorites until they flee by overutilization.
// The satisfaction windows clamp to [-1,1] at record time (Section 2's
// expressed range), so the δ characteristics stay in [0,1].
//
// That depth is paid for only where it is used: an unwilling provider's
// slot gets IntentionOrBound's pow-free bound, and the exact value is
// computed if the strategy resolves the slot (lazyPI).
//
// The same loop checks each provider's reputation against the row store's
// shadow (ciRows), and a mismatch bumps the store's version: that is what
// lets a consumer-intention row over pq be read after it. A Pq too small
// for rows skips the check; a row over a larger Pq holding the same
// provider is read only after that Pq's own gather has checked it.
func (m *Mediator) providerIntentions(now float64, class int, pq []*model.Provider, pi, deferred []float64) ([]float64, []float64) {
	pi, deferred = growFloats(pi, len(pq)), growFloats(deferred, len(pq))
	rowed := len(pq) >= rowMinPq
	for i, p := range pq {
		pi[i], deferred[i] = p.IntentionOrBound(class, now)
		if id := uint(p.ID); rowed && (id >= uint(len(m.rows.shadow)) || m.rows.shadow[id] != (repShadow{p, math.Float64bits(p.Reputation)})) {
			m.rows.reshadow(p)
		}
	}
	return pi, deferred
}

// allocateInto is the shared allocation commit (Algorithm 1 lines 6-10):
// it scores, ranks, selects, records the result, and fills out in place.
// Both callers (Allocate, Server.turn) pass a non-empty pq, intention
// vectors they sized like it (deferred: see lazyPI) and adq, Equation 1
// over ci. Out's Selected aliases
// the strategy's scratch selection and is valid only until the next
// mediation on this mediator — the server, whose allocations outlive that,
// arenas it (Server.turn).
func (m *Mediator) allocateInto(out *Allocation, now float64, q *model.Query, pq []*model.Provider, ci []float64, adq float64, pi, deferred []float64) error {
	if m.Strategy == nil {
		return errors.New("mediator: no allocation strategy configured")
	}
	sc := &m.scratch
	sc.provSat = growFloats(sc.provSat, len(pq))
	provSat := sc.provSat
	for i := range pq {
		provSat[i] = pq[i].Public.Satisfaction()
	}
	sc.lazy = lazyPI{pq: pq, pi: pi, deferred: deferred, class: q.Class}
	sc.req = allocator.Request{
		Query:       q,
		Pq:          pq,
		CI:          ci,
		PI:          pi,
		Lazy:        &sc.lazy,
		ConsumerSat: q.Consumer.Tracker.Satisfaction(),
		ProviderSat: provSat,
		Now:         now,
		Scratch:     &sc.strat,
	}
	selected := m.Strategy.Allocate(&sc.req)

	m.record(q, pq, ci, adq, pi, selected)
	*out = Allocation{Query: q, Pq: pq, CI: ci, PI: pi, Selected: selected}
	return nil
}

// record performs the mediation-result notification: the consumer logs the
// allocation against its shown intentions (Equations 1-2, Equation 1 being
// adq as the row store keeps it) and every
// provider in Pq — selected or not — logs the proposal in both its public
// (intention-fed) and private (preference-fed) windows. Pq is in ascending
// ID order, the order in which a population lays its tracker words along a
// line (satisfaction.InitCohort): where the trackers have seen equally many
// proposals, this loop writes memory in sequence.
//
// The selected set is marked with an epoch stamp instead of a per-call map:
// selStamp[i] == epoch means Pq[i] was selected this mediation, and bumping
// the epoch invalidates every stale mark at once. The epoch is a uint64 and
// never reused, so a fresh (zeroed) stamp buffer can never read as
// selected.
func (m *Mediator) record(q *model.Query, pq []*model.Provider, ci []float64, adq float64, pi []float64, selected []int) {
	q.Consumer.Tracker.RecordAllocationWith(adq, ci, selected, q.N)
	sc := &m.scratch
	if cap(sc.selStamp) < len(pq) {
		sc.selStamp = make([]uint64, len(pq))
	}
	sc.selStamp = sc.selStamp[:cap(sc.selStamp)]
	sc.epoch++
	for _, idx := range selected {
		if idx >= 0 && idx < len(pq) {
			sc.selStamp[idx] = sc.epoch
		}
	}
	for i, p := range pq {
		performed := sc.selStamp[i] == sc.epoch
		p.Public.Record(pi[i], performed)
		p.Private.Record(p.Preference(q.Class), performed)
	}
}
