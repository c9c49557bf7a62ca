package model

import (
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
}

// NewPopulation builds a population from the configuration, drawing class
// memberships and preferences from rng. startTime anchors the utilization
// windows (normally 0).
//
// Memory layout: participants, trackers, utilization windows, ring storage,
// preference vectors, and the providers' Definition 8 factor memos are all
// carved from a handful of bulk arrays
// instead of being allocated one object at a time. Participants created
// together therefore sit adjacent in memory — the access order of the
// mediation loop — and building a 100k-provider population is a few large
// allocations instead of ~1M small ones. The provider trackers' rings are
// one block laid out line-major (satisfaction.InitCohort): slot s of every
// tracker is adjacent, the order a result notification writes them in.
// The *Provider/*Consumer pointer API is unchanged (the pointers index into
// the bulk arrays, and population membership is fixed after construction:
// churn toggles Alive, it never appends). The RNG draw sequence is exactly
// the per-object constructor's, so every seeded run is byte-identical to
// the previous layout.
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

	consK := cfg.ConsumerK
	if consK < 1 {
		consK = 1
	}
	arena := satisfaction.NewArena(2 * consK * cfg.Consumers)
	providers := make([]Provider, cfg.Providers)
	// Provider i's public and private trackers are 2i and 2i+1 of one
	// cohort, so the result notification of a mediation writes both of a
	// provider's words in one line and sweeps Pq along it.
	provTrackers := make([]satisfaction.ProviderTracker, 2*cfg.Providers)
	satisfaction.InitCohort(provTrackers, cfg.ProviderK, cfg.InitialSatisfaction, cfg.PriorSamples)
	utils := make([]UtilizationWindow, cfg.Providers)
	nClasses := len(cfg.QueryClasses)
	provPrefs := make([]float64, cfg.Providers*nClasses)

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
			Public:        &provTrackers[2*i],
			Private:       &provTrackers[2*i+1],
			SmoothSat:     cfg.InitialSatisfaction,
			SmoothAdq:     cfg.InitialSatisfaction,
			SmoothUt:      cfg.InitialSatisfaction,
			Alive:         true,
			interestBand:  cfg.InterestBands[interest[i]],
		}
		p.Util = &utils[i]
		p.Util.Init(cfg.UtilizationWindow, p.Capacity, startTime)
		p.LoadHorizon = cfg.LoadHorizon
		band := cfg.AdaptBands[p.AdaptClass]
		p.prefs = provPrefs[i*nClasses : (i+1)*nClasses : (i+1)*nClasses]
		for c := range p.prefs {
			p.prefs[c] = rng.Uniform(band[0], band[1])
		}
		pop.Providers[i] = p
	}

	assignCapabilities(pop.Providers, cfg, rng)

	// Definition 8's preference-factor memo: one entry per advertised
	// (provider, class), known only now that the capability sets are drawn.
	slots := 0
	for i := range providers {
		slots += providers[i].advertisedClasses()
	}
	factors := make([]factorMemo, slots)
	for i := range providers {
		n := providers[i].advertisedClasses()
		providers[i].memo.pref, factors = factors[:n:n], factors[n:]
	}

	consumers := make([]Consumer, cfg.Consumers)
	consTrackers := make([]satisfaction.ConsumerTracker, cfg.Consumers)
	var consPrefs []float64
	if !cfg.HashedConsumerPrefs {
		consPrefs = make([]float64, cfg.Consumers*cfg.Providers)
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
		c.Tracker.Init(arena, cfg.ConsumerK, cfg.InitialSatisfaction, cfg.PriorSamples)
		if cfg.HashedConsumerPrefs {
			c.hashedPrefs = true
			c.prefSeed = rng.Uint64()
		} else {
			c.prefs = consPrefs[i*cfg.Providers : (i+1)*cfg.Providers : (i+1)*cfg.Providers]
			for j, p := range pop.Providers {
				band := cfg.InterestBands[p.InterestClass]
				c.prefs[j] = rng.Uniform(band[0], band[1])
			}
		}
		pop.Consumers[i] = c
	}
	return pop
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
