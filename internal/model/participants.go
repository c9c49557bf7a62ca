package model

import (
	"sqlb/internal/satisfaction"
)

// Consumer is an autonomous query issuer. Its preference for allocating a
// query to each provider is private; what it reveals is its intention
// (Definition 7), computed by trading preferences for reputation via υ.
type Consumer struct {
	// ID indexes the consumer within the population.
	ID int
	// Upsilon is υ ∈ [0,1]: the weight of own preferences versus provider
	// reputation when forming intentions (Definition 7). The paper's
	// experiments use υ = 1 (intentions ≡ preferences).
	Upsilon float64
	// Epsilon is ε > 0 of Definition 7.
	Epsilon float64

	// Tracker holds the consumer's §3.1 characteristics over its k last
	// issued queries, fed with the intentions it expressed. Intentions are
	// public, so this is simultaneously the consumer's own view and the
	// mediator-observed view used by ω (Equation 6).
	Tracker *satisfaction.ConsumerTracker

	// SmoothSat and SmoothAdq are the consumer's long-run self-assessment:
	// EWMA readings of the tracker, seeded at the initial satisfaction and
	// updated periodically (Section 3 frames the characteristics as a
	// regular long-run assessment). Departure decisions use these.
	SmoothSat float64
	SmoothAdq float64

	// departed is why the consumer left; ReasonNone while it is in.
	departed DepartureReason
	// hashedPrefs: prefSeed stands in for prefs (below).
	hashedPrefs bool
	// _ pads Consumer to two cache lines, its measured size (ROADMAP 17b).
	_ [8]byte

	// prefs[layout.slot[p.ID]] is prf_c(·, p), drawn from the interest band
	// of p's interest class (prefs[p.ID] when layout, the consumer's own
	// population's, is nil). Per the experimental setup the preference
	// depends on the provider, not on the query class. Nil when the
	// population runs with hashed preferences (Config.HashedConsumerPrefs):
	// then prefSeed derives prf_c(p) on demand and prefOverride carries any
	// scripted overrides.
	prefs        []float64
	layout       *layout
	prefSeed     uint64
	prefOverride map[int]float64
	prefVersion  uint64
}

// Alive reports whether the consumer is still in the system.
func (c *Consumer) Alive() bool { return c.departed == ReasonNone }

// Depart takes the consumer out of the system for reason; a ReasonNone
// departure changes nothing. Consumers do not come back.
func (c *Consumer) Depart(reason DepartureReason) {
	if reason != ReasonNone {
		c.departed = reason
	}
}

// PreferenceVersion counts SetPreference calls (the mediator's rows key on it).
func (c *Consumer) PreferenceVersion() uint64 { return c.prefVersion }

// Preference returns prf_c(q, p) ∈ [-1,1], the consumer's private
// preference for allocating a query of the given class to provider p.
func (c *Consumer) Preference(p *Provider, queryClass int) float64 {
	if p == nil || p.ID < 0 {
		return 0
	}
	if c.hashedPrefs {
		if c.prefOverride != nil {
			if v, ok := c.prefOverride[p.ID]; ok {
				return v
			}
		}
		band := p.interestBand
		return band[0] + (band[1]-band[0])*hashUnit(c.prefSeed, uint64(p.ID))
	}
	if p.ID >= len(c.prefs) {
		return 0
	}
	return c.prefs[c.prefIndex(p.ID)]
}

// prefIndex is where prf_c(·, p) of provider id < len(prefs) sits in the
// preference row.
func (c *Consumer) prefIndex(id int) int {
	if c.layout != nil {
		return int(c.layout.slot[id])
	}
	return id
}

// SetPreference overrides prf_c(·, p); used by examples that script
// preference changes and by tests.
func (c *Consumer) SetPreference(providerID int, pref float64) {
	if providerID < 0 {
		return
	}
	c.prefVersion++
	if c.hashedPrefs {
		if c.prefOverride == nil {
			c.prefOverride = make(map[int]float64)
		}
		c.prefOverride[providerID] = satisfaction.Clamp(pref)
		return
	}
	if providerID < len(c.prefs) {
		c.prefs[c.prefIndex(providerID)] = satisfaction.Clamp(pref)
	}
}

// hashUnit maps (seed, x) to a uniform draw in [0,1) with a splitmix64-style
// finalizer: cheap, stateless, and stable across runs, which is what lets a
// hashed-preference consumer answer prf_c(p) without storing |P| floats.
func hashUnit(seed, x uint64) float64 {
	v := seed + x*0x9E3779B97F4A7C15
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	return float64(v>>11) / (1 << 53)
}

// Provider is an autonomous query performer with finite capacity. Its
// preference for performing each query class is private; what it reveals is
// its intention (Definition 8), trading preferences for utilization
// according to its private, preference-based satisfaction.
type Provider struct {
	// ID indexes the provider within the population.
	ID int
	// Capacity is the service rate in treatment units per second.
	Capacity float64
	// Epsilon is ε > 0 of Definition 8.
	Epsilon float64

	// InterestClass is how interesting consumers find this provider
	// (drives the consumer preference band), AdaptClass how adapted the
	// provider is to incoming queries (drives its own preference band),
	// CapClass its capacity class. The three dimensions are independent.
	InterestClass ClassLevel
	AdaptClass    ClassLevel
	CapClass      ClassLevel

	// Reputation is rep(p) ∈ [-1,1] as seen by consumers (Definition 7).
	// Write it through Population.SetReputation or RecordFeedback: the
	// mediator keeps consumer intentions computed from it and learns of a
	// change only from Population.ReputationVersion. It stays a field for
	// readers outside the module; a direct write is a break that a test of
	// the module's sources refuses.
	Reputation float64

	// Public tracks §3.2 characteristics fed with the *intentions* the
	// provider showed — the mediator-visible view that Equation 6 uses.
	Public *satisfaction.ProviderTracker
	// Private tracks the same characteristics fed with the provider's
	// *preferences* — the view Figures 4(b)-(c) measure. Only the provider
	// can compute it.
	Private *satisfaction.ProviderTracker

	// SmoothSat and SmoothAdq are the provider's long-run self-assessment:
	// EWMA readings of the Private tracker, seeded at the initial
	// satisfaction. The instantaneous windowed satisfaction rests on the
	// few queries performed within the last-k proposals and is therefore
	// noisy; the long-run EWMA — level × frequency of desired queries —
	// is what the provider trades against utilization in Definition 8 and
	// what its departure decision consults. Its stationary value is
	// (1−P₀)·r̄, where P₀ is the fraction of assessments with an empty
	// performed set and r̄ the preference level of performed queries: a
	// preference-blind allocator drives it to ≈0.71·δa (the Figure 4(c)
	// punishment), an intention-aware one to ≈0.9.
	SmoothSat float64
	SmoothAdq float64
	// SmoothUt is the long-run EWMA of the provider's load, seeded at the
	// initial satisfaction level (0.5 — "so far, so normal"). The load
	// reading is max(Ut, backlog/W): the windowed assigned rate, or the
	// queued work normalized by the utilization window when the queue has
	// outgrown it — a provider whose backlog keeps growing is overcommitted
	// even if its inflow rate looks moderate. The starvation and
	// overutilization departure rules consult this value: a provider
	// leaves over a *sustained* condition, not over one window reading
	// (a single 140-unit query spikes a low-capacity provider's 60-second
	// window by ≈0.16).
	SmoothUt float64

	// Util is the provider's utilization window (Ut of Section 2).
	Util *UtilizationWindow
	// LoadHorizon is the backlog horizon (seconds) of OperationalLoad.
	LoadHorizon float64

	// BusyUntil is the virtual time at which the provider's FIFO queue
	// drains; the service substrate for response-time measurement.
	BusyUntil float64
	// QueriesPerformed counts queries this provider has executed.
	QueriesPerformed uint64

	// departed is why the provider left; ReasonNone while it is in.
	departed DepartureReason
	// _ pads Provider to four cache lines, its measured size (ROADMAP 17b).
	_ [16]byte

	// prefs[class] is prf_p(q) for each query class, drawn from the
	// adaptation band.
	prefs []float64

	// interestBand is the [lo,hi] interest band of the provider's interest
	// class; hashed-preference consumers derive prf_c(p) from it.
	interestBand [2]float64

	// caps is the advertised capability set as a bitset over query-class
	// indexes; nil means "all classes" (the paper's experimental setup, in
	// which every provider can perform every query — Section 6.1). The
	// matchmaker's task-description match (the abstraction of q.d in
	// Section 2) reduces to a bit test against this set.
	caps []uint64

	// memo keeps the preference factors of the provider's last Definition
	// 8 evaluations (see IntentionAt).
	memo intentionMemo
}

// Alive reports whether the provider is still in the system.
func (p *Provider) Alive() bool { return p.departed == ReasonNone }

// DepartReason is why the provider left the system, ReasonNone while it
// is in it.
func (p *Provider) DepartReason() DepartureReason { return p.departed }

// Depart takes the provider out of the system for reason; a ReasonNone
// departure changes nothing. Whoever holds a match index also removes the
// provider from it (matchmaking.Index.Remove); one that does not leaves
// it to the index's lazy prune.
func (p *Provider) Depart(reason DepartureReason) {
	if reason != ReasonNone {
		p.departed = reason
	}
}

// Rejoin brings a departed provider back into the system; a match index
// must register it again (matchmaking.Index.Add).
func (p *Provider) Rejoin() { p.departed = ReasonNone }

// CanServe reports whether the provider advertises the query class — the
// sound-and-complete matchmaking predicate of Section 2 (refs [11,14]).
// A provider with no explicit capability set serves every class.
func (p *Provider) CanServe(queryClass int) bool {
	if p.caps == nil {
		return queryClass >= 0
	}
	if queryClass < 0 || queryClass >= len(p.caps)*64 {
		return false
	}
	return p.caps[queryClass/64]&(1<<(uint(queryClass)%64)) != 0
}

// Generalist reports whether the provider advertises every class (no
// explicit capability set).
func (p *Provider) Generalist() bool { return p.caps == nil }

// SetCapabilities replaces the provider's advertised capability set with
// the given class indexes out of total classes. An empty list with
// total > 0 yields a provider that serves nothing; call ClearCapabilities
// to restore the all-classes default.
func (p *Provider) SetCapabilities(classes []int, total int) {
	p.Private.Detach()
	p.setCapabilities(classes, total)
	p.ownMemoRow()
}

// setCapabilities is SetCapabilities without the memo row: NewPopulation
// draws every capability set first and carves all rows from one array.
func (p *Provider) setCapabilities(classes []int, total int) {
	if total < 1 {
		total = 1
	}
	p.caps = make([]uint64, (total+63)/64)
	for _, c := range classes {
		if c >= 0 && c < total {
			p.caps[c/64] |= 1 << (uint(c) % 64)
		}
	}
}

// ClearCapabilities restores the all-classes default.
func (p *Provider) ClearCapabilities() {
	p.Private.Detach()
	p.caps = nil
	p.ownMemoRow()
}

// CapabilityClasses returns the advertised class indexes in ascending
// order, or nil for a generalist. total bounds the enumeration (pass the
// workload's class count).
func (p *Provider) CapabilityClasses(total int) []int {
	if p.caps == nil {
		return nil
	}
	out := []int{}
	for c := 0; c < total && c < len(p.caps)*64; c++ {
		if p.caps[c/64]&(1<<(uint(c)%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// Preference returns prf_p(q) ∈ [-1,1] for a query of the given class.
func (p *Provider) Preference(queryClass int) float64 {
	if queryClass < 0 || queryClass >= len(p.prefs) {
		return 0
	}
	return p.prefs[queryClass]
}

// SetPreference overrides prf_p for one query class; used by the
// adaptivity example (the courier company changing campaigns) and tests.
// A private window that is a stream's view leaves it first: the proposals
// it holds were rated with the old preference.
func (p *Provider) SetPreference(queryClass int, pref float64) {
	if queryClass >= 0 && queryClass < len(p.prefs) {
		p.Private.Detach()
		p.prefs[queryClass] = satisfaction.Clamp(pref)
	}
}

// Utilization returns Ut(p) at time now: assigned work over the trailing
// window divided by capacity. This is the Section 2 utilization the §4
// metrics and the Section 6.3.2 starvation/overutilization rules read.
func (p *Provider) Utilization(now float64) float64 {
	return p.Util.Utilization(now)
}

// OperationalLoad is the load signal a provider trades against its
// preferences in Definition 8: the maximum of the windowed utilization and
// the queued work normalized by the load horizon. The backlog term is what
// makes willingness collapse *before* rate saturation — without it a
// provider with any positive intention keeps outranking every unwilling
// provider while its queue grows without bound, which would wreck response
// times (the paper: providers show positive intentions only when not
// overutilized, which "helps to keep good response times").
func (p *Provider) OperationalLoad(now float64) float64 {
	load := p.Util.Utilization(now)
	h := p.LoadHorizon
	if !(h > 0) { // unset, negative or NaN
		h = DefaultLoadHorizon
	}
	if b := p.Backlog(now) / h; b > load {
		load = b
	}
	return load
}

// Assign enqueues units of work at time now on the provider's FIFO queue
// and returns the completion time. It also feeds the utilization window.
func (p *Provider) Assign(now, units float64) (completion float64) {
	start := now
	if p.BusyUntil > start {
		start = p.BusyUntil
	}
	completion = start + units/p.Capacity
	p.BusyUntil = completion
	p.Util.Add(now, units)
	p.QueriesPerformed++
	return completion
}

// Backlog returns the seconds of queued work at time now.
func (p *Provider) Backlog(now float64) float64 {
	if p.BusyUntil <= now {
		return 0
	}
	return p.BusyUntil - now
}

// ServiceTime returns how long this provider needs for units of work.
func (p *Provider) ServiceTime(units float64) float64 {
	return units / p.Capacity
}

// MeasuredLoad is the Ut(p) reading the §4 metrics and the departure rules
// observe: the windowed assigned rate, or the queued work normalized by
// the utilization window when the queue has outgrown it. For a balanced
// provider the two coincide with its workload share (the paper's "optimal
// utilization is 0.8 at 80% workload"); for an overcommitted one the
// backlog term exposes the overload that a rate reading hides.
func (p *Provider) MeasuredLoad(now float64) float64 {
	load := p.Utilization(now)
	if b := p.Backlog(now) / p.Util.Window(); b > load {
		load = b
	}
	return load
}

// Smooth folds the current Private tracker readings and load into the
// provider's long-run self-assessment with EWMA factor alpha.
func (p *Provider) Smooth(alpha, now float64) {
	p.SmoothSat += alpha * (p.Private.Satisfaction() - p.SmoothSat)
	p.SmoothAdq += alpha * (p.Private.Adequation() - p.SmoothAdq)
	p.SmoothUt += alpha * (p.MeasuredLoad(now) - p.SmoothUt)
}

// Smooth folds the current tracker readings into the consumer's long-run
// self-assessment with EWMA factor alpha.
func (c *Consumer) Smooth(alpha float64) {
	c.SmoothSat += alpha * (c.Tracker.Satisfaction() - c.SmoothSat)
	c.SmoothAdq += alpha * (c.Tracker.Adequation() - c.SmoothAdq)
}
