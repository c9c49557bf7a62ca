package model

import (
	"math/bits"

	"sqlb/internal/randx"
	"sqlb/internal/satisfaction"
)

// Population is the set of consumers and providers registered to the
// mediator, built per the Section 6.1 setup.
type Population struct {
	Consumers []*Consumer
	Providers []*Provider
	Classes   []QueryClass
	Config    Config

	// layout is where each provider sits in the population's slabs; nil
	// when they sit in ID order.
	layout *layout
	// stream is what the providers' trackers are views of while every Pq
	// is the whole population; nil under capability matchmaking.
	stream *satisfaction.Stream
}

// Stream returns the stream the providers' windows are views of (see
// satisfaction.Stream): the private ones class views, the public ones
// shown views. It is nil when a population matches queries by capability
// and keeps every window as a ring. Result notification advances it for a
// mediation whose Pq is its member set.
func (pop *Population) Stream() *satisfaction.Stream { return pop.stream }

// layout maps a provider ID to its position in the slabs of a population
// that does not keep them in ID order (see NewPopulation). Consumers hold a
// pointer to it, not the slice, which keeps Consumer at two cache lines.
type layout struct {
	slot []int32
}

// NewPopulation builds a population from the configuration, drawing class
// memberships and preferences from rng. startTime anchors the utilization
// windows (normally 0).
//
// Memory layout: participants, trackers, utilization windows, ring storage,
// preference vectors, and the providers' Definition 8 factor memos are all
// carved from a handful of bulk arrays, so building a 100k-provider
// population is a few large allocations instead of ~1M small ones. The slabs
// a mediation reads per candidate — Provider structs, utilization windows,
// tracker cohort, factor memos, dense consumer preference rows — follow the
// order the matchmaker hands out Pq: ID order when every Pq is the whole
// population (the paper's setup); under capability matchmaking, by lowest
// advertised class, generalists first and ID order within a class, so a
// narrow Pq is one contiguous run of each slab, not |Pq| scattered lines.
// Under capability matchmaking the tracker rings are one block laid out
// line-major (satisfaction.InitCohort), the order a result notification
// writes them in; where every Pq is the whole population the trackers are
// views of one stream and keep no ring. pop.Providers[i] is still ID i, Pq still ascends by ID, and membership
// is fixed after construction (churn toggles Alive, it never appends). The
// RNG draws are the per-object constructor's, in ID order, so every seeded
// run is byte-identical to the ID-ordered layout.
func NewPopulation(cfg Config, rng *randx.Rand, startTime float64) *Population {
	pop := &Population{
		Consumers: make([]*Consumer, cfg.Consumers),
		Providers: make([]*Provider, cfg.Providers),
		Classes:   append([]QueryClass(nil), cfg.QueryClasses...),
		Config:    cfg,
	}

	interest := assignClasses(cfg.Providers, cfg.InterestShares, rng)
	adapt := assignClasses(cfg.Providers, cfg.AdaptShares, rng)
	capc := assignClasses(cfg.Providers, cfg.CapacityShares, rng)

	// The consumers' ring block comes first: allocated after the provider
	// slabs, it raised the peak RSS of a process that builds and drops
	// populations in turn (the repository benchmark's sim-narrow) by 8 %.
	consWords := make([]uint64, 2*max(cfg.ConsumerK, 1)*cfg.Consumers)
	providers := make([]Provider, cfg.Providers)
	provTrackers := make([]satisfaction.ProviderTracker, 2*cfg.Providers)
	utils := make([]UtilizationWindow, cfg.Providers)
	nClasses := len(cfg.QueryClasses)
	provPrefs := make([]float64, cfg.Providers*nClasses)
	// tracker returns the public (0) or private (1) tracker of the provider
	// at position k. Under capability matchmaking they are trackers 2k and
	// 2k+1 of one cohort, so the result notification of a mediation writes
	// both of a provider's words in one line and sweeps Pq along it. Where
	// every Pq is the whole population, both are views of one stream and
	// keep no ring: the private trackers class views
	// (satisfaction.NewStream), the public ones shown views (JoinShown).
	tracker := func(k, private int) *satisfaction.ProviderTracker { return &provTrackers[2*k+private] }
	if cfg.Heterogeneous() {
		satisfaction.InitCohort(provTrackers, cfg.ProviderK, cfg.InitialSatisfaction, cfg.PriorSamples)
	} else {
		pop.stream = satisfaction.NewStream(provTrackers[cfg.Providers:], provPrefs, nClasses,
			cfg.ProviderK, cfg.InitialSatisfaction, cfg.PriorSamples)
		pop.stream.JoinShown(provTrackers[:cfg.Providers], cfg.InitialSatisfaction, cfg.PriorSamples)
		tracker = func(k, private int) *satisfaction.ProviderTracker { return &provTrackers[private*cfg.Providers+k] }
	}

	for i := range providers {
		p := &providers[i]
		*p = Provider{
			ID:            i,
			Epsilon:       cfg.Epsilon,
			InterestClass: interest[i],
			AdaptClass:    adapt[i],
			CapClass:      capc[i],
			Capacity:      cfg.CapacityFor(capc[i]),
			Reputation:    rng.Uniform(cfg.ReputationBand[0], cfg.ReputationBand[1]),
			SmoothSat:     cfg.InitialSatisfaction,
			SmoothAdq:     cfg.InitialSatisfaction,
			SmoothUt:      cfg.InitialSatisfaction,
			LoadHorizon:   cfg.LoadHorizon,
			Alive:         true,
			interestBand:  cfg.InterestBands[interest[i]],
		}
		band := cfg.AdaptBands[p.AdaptClass]
		p.prefs = provPrefs[i*nClasses : (i+1)*nClasses : (i+1)*nClasses]
		for c := range p.prefs {
			p.prefs[c] = rng.Uniform(band[0], band[1])
		}
		pop.Providers[i] = p
	}

	assignCapabilities(pop.Providers, cfg, rng)

	// order[k] is the ID of the provider at position k; nil is ID order.
	var order []int32
	if cfg.Heterogeneous() {
		pop.layout, order = classMajor(providers, nClasses)
		slot := pop.layout.slot
		for k := range providers {
			for j := slot[providers[k].ID]; int(j) != k; j = slot[providers[k].ID] {
				providers[k], providers[j] = providers[j], providers[k]
			}
		}
	}

	// Definition 8's preference-factor memo: one entry per advertised
	// (provider, class), known only now that the capability sets are drawn.
	slots := 0
	for k := range providers {
		slots += providers[k].advertisedClasses()
	}
	factors := make([]factorMemo, slots)
	for k := range providers {
		p := &providers[k]
		pop.Providers[p.ID] = p
		p.Public, p.Private = tracker(k, 0), tracker(k, 1)
		p.Util = &utils[k]
		p.Util.Init(cfg.UtilizationWindow, p.Capacity, startTime)
		n := p.advertisedClasses()
		p.memo.pref, factors = factors[:n:n], factors[n:]
	}

	consumers := make([]Consumer, cfg.Consumers)
	consTrackers := make([]satisfaction.ConsumerTracker, cfg.Consumers)
	satisfaction.InitConsumerCohort(consTrackers, consWords, cfg.InitialSatisfaction, cfg.PriorSamples)
	var consPrefs, draws []float64
	if !cfg.HashedConsumerPrefs {
		consPrefs = make([]float64, cfg.Consumers*cfg.Providers)
		if order != nil {
			draws = make([]float64, cfg.Providers)
		}
	}
	for i := range consumers {
		c := &consumers[i]
		*c = Consumer{
			ID:        i,
			Upsilon:   cfg.Upsilon,
			Epsilon:   cfg.Epsilon,
			Tracker:   &consTrackers[i],
			SmoothSat: cfg.InitialSatisfaction,
			SmoothAdq: cfg.InitialSatisfaction,
			Alive:     true,
		}
		if cfg.HashedConsumerPrefs {
			c.hashedPrefs = true
			c.prefSeed = rng.Uint64()
		} else {
			c.prefs = consPrefs[i*cfg.Providers : (i+1)*cfg.Providers : (i+1)*cfg.Providers]
			c.layout = pop.layout
			// The row is drawn in ID order, the RNG's, and copied in
			// layout order: stores scattered over the freshly zeroed row
			// cost more than the copy.
			row := c.prefs
			if order != nil {
				row = draws
			}
			for j, class := range interest {
				band := cfg.InterestBands[class]
				row[j] = rng.Uniform(band[0], band[1])
			}
			for k, id := range order {
				c.prefs[k] = draws[id]
			}
		}
		pop.Consumers[i] = c
	}
	return pop
}

// classMajor lays providers out by their lowest advertised class with a
// stable counting sort: generalists first, then class 0's, class 1's, …, and
// last any provider that advertises nothing, each run in ascending ID. It
// returns the layout and its inverse, the ID at each position.
func classMajor(providers []Provider, nClasses int) (*layout, []int32) {
	key := func(p *Provider) int {
		if p.caps == nil {
			return 0
		}
		for w, word := range p.caps {
			if word != 0 {
				return 1 + min(w*64+bits.TrailingZeros64(word), nClasses)
			}
		}
		return 1 + nClasses
	}
	start := make([]int32, nClasses+3)
	for k := range providers {
		start[key(&providers[k])+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	l := &layout{slot: make([]int32, len(providers))}
	order := make([]int32, len(providers))
	for id := range providers {
		pos := &start[key(&providers[id])]
		l.slot[id], order[*pos] = *pos, int32(id)
		*pos++
	}
	return l, order
}

// assignCapabilities draws each provider's advertised capability set for
// the heterogeneous scenarios (Config.CapabilitySelectivity): a provider is
// a generalist with probability GeneralistShare, otherwise it advertises
// CapabilityCount classes drawn uniformly without replacement. In the
// paper's homogeneous setup (selectivity 0 or ≥ 1) nothing is drawn at
// all, so the RNG stream — and therefore every downstream draw for a given
// seed — is byte-identical to the pre-capability implementation.
func assignCapabilities(providers []*Provider, cfg Config, rng *randx.Rand) {
	if !cfg.Heterogeneous() {
		return
	}
	total := len(cfg.QueryClasses)
	m := cfg.CapabilityCount()
	for _, p := range providers {
		if cfg.GeneralistShare > 0 && rng.Bool(cfg.GeneralistShare) {
			continue // stays a generalist (nil capability set)
		}
		perm := rng.Perm(total)
		p.setCapabilities(perm[:m], total)
	}
}

// assignClasses deals n memberships according to shares (indexed by
// ClassLevel) and shuffles them so the three dimensions stay independent.
func assignClasses(n int, shares [3]float64, rng *randx.Rand) []ClassLevel {
	out := make([]ClassLevel, 0, n)
	counts := [3]int{}
	for lvl := 0; lvl < 2; lvl++ {
		counts[lvl] = int(shares[lvl]*float64(n) + 0.5)
	}
	counts[2] = n - counts[0] - counts[1]
	if counts[2] < 0 {
		counts[2] = 0
		counts[1] = n - counts[0]
		if counts[1] < 0 {
			counts[1] = 0
			counts[0] = n
		}
	}
	for lvl, cnt := range counts {
		for i := 0; i < cnt; i++ {
			out = append(out, ClassLevel(lvl))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TotalCapacity is the aggregate capacity of all providers (units/second),
// the paper's "total system capacity".
func (pop *Population) TotalCapacity() float64 {
	sum := 0.0
	for _, p := range pop.Providers {
		sum += p.Capacity
	}
	return sum
}

// AliveCapacity is the aggregate capacity of providers still registered.
func (pop *Population) AliveCapacity() float64 {
	sum := 0.0
	for _, p := range pop.Providers {
		if p.Alive {
			sum += p.Capacity
		}
	}
	return sum
}

// AliveProviders returns the providers still registered to the mediator.
func (pop *Population) AliveProviders() []*Provider {
	out := make([]*Provider, 0, len(pop.Providers))
	for _, p := range pop.Providers {
		if p.Alive {
			out = append(out, p)
		}
	}
	return out
}

// AliveConsumers returns the consumers still registered to the mediator.
func (pop *Population) AliveConsumers() []*Consumer {
	out := make([]*Consumer, 0, len(pop.Consumers))
	for _, c := range pop.Consumers {
		if c.Alive {
			out = append(out, c)
		}
	}
	return out
}

// ProviderValues maps providers to a metric value set; when aliveOnly is
// set, departed providers are skipped. Used by the §4 metric sampling.
func (pop *Population) ProviderValues(aliveOnly bool, f func(*Provider) float64) []float64 {
	out := make([]float64, 0, len(pop.Providers))
	for _, p := range pop.Providers {
		if aliveOnly && !p.Alive {
			continue
		}
		out = append(out, f(p))
	}
	return out
}

// ConsumerValues maps consumers to a metric value set.
func (pop *Population) ConsumerValues(aliveOnly bool, f func(*Consumer) float64) []float64 {
	out := make([]float64, 0, len(pop.Consumers))
	for _, c := range pop.Consumers {
		if aliveOnly && !c.Alive {
			continue
		}
		out = append(out, f(c))
	}
	return out
}
