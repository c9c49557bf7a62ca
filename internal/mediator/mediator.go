// Package mediator implements the mediation layer of Figure 1 and
// Algorithm 1: matchmaking (finding Pq), obtaining the consumer's and the
// providers' intentions (computed in-process from the model's state),
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
	"sqlb/internal/satisfaction"
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
	// Match is the matchmaking procedure; nil means every alive provider.
	Match Matchmaker

	// scratch holds the mediator's reusable per-mediation buffers. A
	// mediator serializes its mediations (the engine's event loop, the
	// server's mu), so one set suffices.
	scratch medScratch
	// epoch numbers the mediation turns: Allocate is a turn of one query,
	// Server.turn one per batch. gathered holds one slot per class of the
	// population, each valid for the turn its epoch names, so "gather this
	// class again?" is one integer compare and nothing is cleared between
	// turns.
	epoch    uint64
	gathered []gather
	// rows keeps consumer-intention rows across mediations, for Allocate
	// and the server's turns alike.
	rows ciRows
	// streamed is the last Pq content id found to be the member set of a
	// window stream, with the stream and its version then.
	streamed streamKey
	// privateWrites and publicWrites count the words result notifications
	// wrote into private- and public-window rings (tests read them by
	// name).
	privateWrites, publicWrites uint64
}

// gather is one class's provider half of lines 1-5 of Algorithm 1 in the
// turn of epoch: Pq, Definition 8 over it, exact or deferred (see lazyPI),
// and Pq's content id in the row store (ciRows). Definition 8 depends only
// on (provider, class, clock), not on the consumer, so one gather serves
// every query of the class in a turn. Pq lives in storage the slot owns:
// an index's posting list may be compacted in place by a later turn's lazy
// prune, and a mediation in progress must not see that.
//
// rated lists, ascending, the slots whose pi > −1 (or NaN): the only ones
// whose public-window value is not Rate(−1) = 0, and a superset of those
// with pi > 0, which is all Definition 9's sign split needs (core.Split);
// shown holds their public windows, taken while the gather reads each
// provider anyway. ceil is the maximum of pi, NaN if pi holds one. A
// resolution only makes a deferred slot exact, which leaves it ≤ −1, so
// all three hold for the turn.
type gather struct {
	pq       []*model.Provider
	pi       []float64
	deferred []float64
	rated    []int
	shown    []*satisfaction.ProviderTracker
	ceil     float64
	id       uint64
	epoch    uint64
}

type streamKey struct {
	s           *satisfaction.Stream
	id, version uint64
}

// medScratch is the reusable working memory of one mediator: Allocate's
// consumer-intention spare, Pq's trackers, the strategy's buffer pool, and
// the request/allocation shells handed out by the fast path. Everything
// here is sized once at the population's high-water mark and then
// recycled, which is what takes the steady-state mediation to zero heap
// allocations.
type medScratch struct {
	strat    core.Scratch // lent to the strategy via Request.Scratch
	ci       []float64
	lazy     lazyPI
	trackers []*satisfaction.ProviderTracker // see advanceStream
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
// query of the turn has since been assigned to the provider. pi and
// deferred are the class's gather for the turn, so what one query resolves
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

// New returns a mediator using the given strategy and no matchmaker: every
// alive provider can treat every query.
func New(strategy allocator.Allocator) *Mediator {
	return &Mediator{Strategy: strategy}
}

// Allocate mediates one query at the given time: matchmaking, intention
// gathering (lines 2-5 of Algorithm 1, computed synchronously here),
// allocation (lines 6-10), and result notification (recording into every
// participant's satisfaction windows): mediate in a turn of its own. The
// strategy sees only public information: expressed intentions and
// intention-based satisfactions.
//
// This is the simulator's hot path and allocates nothing in steady state:
// the returned Allocation and every slice it carries live in the mediator's
// scratch and are valid only until the next mediation on this mediator.
// Callers that retain anything past that point must copy (SelectedProviders
// does); Server.Mediate returns durable allocations instead.
func (m *Mediator) Allocate(now float64, q *model.Query, pop *model.Population) (*Allocation, error) {
	m.epoch++
	if err := m.mediate(now, q, pop, &m.scratch.ci, &m.scratch.alloc); err != nil {
		return nil, err
	}
	return &m.scratch.alloc, nil
}

// mediate is the one per-query body of every entrance (Allocate, and
// Server.turn for Mediate and MediateBatch): Algorithm 1 for q at now,
// within the current turn. Lines 1-5 gather Pq and Definition 8 once per
// class and turn (gather), and Definition 7 and Equation 1 from the row
// store, or into *spare when it keeps no row for q; lines 6-10 score, rank,
// select and notify. Out's Selected aliases the strategy's scratch
// selection and is valid only until the next mediation on this mediator —
// the server, whose allocations outlive that, arenas it (Server.turn).
func (m *Mediator) mediate(now float64, q *model.Query, pop *model.Population, spare *[]float64, out *Allocation) error {
	classes := len(pop.Classes)
	if n := classes - len(m.gathered); n > 0 {
		m.gathered = append(m.gathered, make([]gather, n)...)
	}
	// A class the population does not define — negative, or past its
	// classes; only a hostile or mis-minted query carries it — is gathered
	// into fresh vectors, so the slots stay bounded by the population
	// whatever the stream holds.
	g := &gather{}
	if k := q.Class; k >= 0 && k < classes {
		g = &m.gathered[k]
	}
	if g.epoch != m.epoch {
		g.pq = matchInto(m.Match, g.pq[:0], q, pop)
		m.providerIntentions(now, q.Class, g)
		g.id = m.rows.identify(q.Class, classes, g.pq)
		g.epoch = m.epoch
	}
	pq, pi := g.pq, g.pi
	if len(pq) == 0 {
		return fmt.Errorf("%w (query %d)", ErrNoProviders, q.ID)
	}
	ci, adq, ciCeil := m.rows.consumer(q, pq, g.id, spare)
	if m.Strategy == nil {
		return errors.New("mediator: no allocation strategy configured")
	}
	sc := &m.scratch
	sc.lazy = lazyPI{pq: pq, pi: pi, deferred: g.deferred, class: q.Class}
	sc.req = allocator.Request{
		Query:       q,
		Pq:          pq,
		CI:          ci,
		PI:          pi,
		Lazy:        &sc.lazy,
		ConsumerSat: q.Consumer.Tracker.Satisfaction(),
		Now:         now,
		Scratch:     &sc.strat,
	}
	split := core.Split{Candidates: g.rated, Ceiling: max(g.ceil, ciCeil)}
	selected := allocator.AllocateSplit(m.Strategy, &sc.req, split)

	m.record(pop, q, g, ci, adq, selected)
	*out = Allocation{Query: q, Pq: pq, CI: ci, PI: pi, Selected: selected}
	return nil
}

// matchInto appends Pq for q to buf (line 1 of Algorithm 1). A nil
// matchmaker is the paper's experimental setup, every alive provider, scanned
// here; any other's answer is copied. Either way Pq lives in storage the
// caller owns, so a later lazy prune of an index posting list cannot reach
// into a mediation in progress.
func matchInto(match Matchmaker, buf []*model.Provider, q *model.Query, pop *model.Population) []*model.Provider {
	if match != nil {
		return append(buf, match.Match(q, pop)...)
	}
	for _, p := range pop.Providers {
		if p.Alive {
			buf = append(buf, p)
		}
	}
	return buf
}

// providerIntentions fills g's pi and deferred, resized to len(g.pq), with
// Definition 8 for every provider of g.pq (lines 2-5 of Algorithm 1, the
// provider half), and g's rated list and ceiling from them. mediate calls
// it once per class and turn.
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
func (m *Mediator) providerIntentions(now float64, class int, g *gather) {
	pq := g.pq
	pi, deferred := growFloats(g.pi, len(pq)), growFloats(g.deferred, len(pq))
	rated, shown, ceil := g.rated[:0], g.shown[:0], math.Inf(-1)
	rowed := len(pq) >= rowMinPq
	for i, p := range pq {
		v, d := p.IntentionOrBound(class, now)
		pi[i], deferred[i] = v, d
		if !(v <= -1) {
			rated, shown = append(rated, i), append(shown, p.Public)
		}
		ceil = core.Raise(ceil, v)
		if id := uint(p.ID); rowed && (id >= uint(len(m.rows.shadow)) || m.rows.shadow[id] != (repShadow{p, math.Float64bits(p.Reputation)})) {
			m.rows.reshadow(p)
		}
	}
	g.pi, g.deferred, g.rated, g.shown, g.ceil = pi, deferred, rated, shown, ceil
}

// record performs the mediation-result notification: the consumer logs the
// allocation against its shown intentions (Equations 1-2, Equation 1 being
// adq as the row store keeps it) and every provider in g's Pq — selected
// or not — logs the proposal in both its public (intention-fed) and
// private (preference-fed) windows. Every proposal is recorded as not
// performed, and the selected ones are marked after, so the performed
// decision costs O(n), whatever |Pq|.
//
// Where Pq is the member set of the population's window stream, the
// stream advances once by the query's class (advanceStream), which is the
// whole proposal to every private window and to every public window that
// shows Rate(−1) = 0; the public windows of g's rated slots are shown
// their value (satisfaction.Stream.Show). So a mediation costs O(rated +
// n), not O(|Pq|).
//
// Otherwise each provider's window that is no member of the stream takes
// a word of its ring. A public window takes one word per proposal; Pq is
// in ascending ID order, and a population lays its tracker words along a
// line in Pq's order (satisfaction.InitCohort), one contiguous run per
// class under capability matchmaking (model.NewPopulation), so where the
// trackers have seen equally many proposals this loop writes memory in
// sequence.
func (m *Mediator) record(pop *model.Population, q *model.Query, g *gather, ci []float64, adq float64, selected []int) {
	pq, pi := g.pq, g.pi
	q.Consumer.Tracker.RecordAllocationWith(adq, ci, selected, q.N)
	if s, whole := m.advanceStream(pop, g.id, q.Class, pq); whole {
		for j, t := range g.shown {
			s.Show(t, pi[g.rated[j]])
		}
	} else {
		for i, p := range pq {
			if s.Member(p.Public) {
				s.Show(p.Public, pi[i])
			} else {
				p.Public.Record(pi[i], false)
				m.publicWrites++
			}
			if !s.Member(p.Private) {
				p.Private.Record(p.Preference(q.Class), false)
				m.privateWrites++
			}
		}
	}
	for _, idx := range selected {
		if idx >= 0 && idx < len(pq) {
			pq[idx].Public.MarkPerformed()
			pq[idx].Private.MarkPerformed()
		}
	}
}

// advanceStream advances pop's window stream, if it has members, by a
// mediation of class over pq, of content id id: one membership decision
// for both windows of every provider. It returns the stream (nil if none)
// and whether pq's trackers are exactly its member set. That costs no pass
// over pq when this mediator found pq's content id to be the member set
// before and no member has left since: equal ids mean equal contents.
// Otherwise the stream compares pq's trackers with its members itself
// (satisfaction.Stream.AdvanceOver).
func (m *Mediator) advanceStream(pop *model.Population, id uint64, class int, pq []*model.Provider) (*satisfaction.Stream, bool) {
	s := pop.Stream()
	if s == nil || s.Live() == 0 {
		return nil, false
	}
	if id != 0 && m.streamed == (streamKey{s, id, s.Version()}) {
		s.Advance(class)
		return s, true
	}
	sc := &m.scratch
	sc.trackers = sc.trackers[:0]
	for _, p := range pq {
		sc.trackers = append(sc.trackers, p.Public, p.Private)
	}
	whole := s.AdvanceOver(sc.trackers, class)
	if whole && id != 0 {
		m.streamed = streamKey{s, id, s.Version()}
	}
	return s, whole
}
