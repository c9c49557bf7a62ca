package sim

import (
	"cmp"
	"errors"
	"fmt"
	"sort"

	"sqlb/internal/matchmaking"
	"sqlb/internal/mediator"
	"sqlb/internal/metrics"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/scenario"
	"sqlb/internal/stats"
	"sqlb/internal/workload"
)

// Engine runs one simulation: it owns the population, the mediator, the
// event heap, and the virtual clock.
type Engine struct {
	opts  Options
	pop   *model.Population
	med   *mediator.Mediator
	index *matchmaking.Index
	gen   *workload.Generator

	// load is the effective workload profile: the scenario's load curve
	// when one is set, Options.Workload otherwise.
	load workload.Profile
	// scn is the scenario scaled to sim-seconds (nil without one); churnRng
	// is the dedicated RNG stream its waves draw victims from, derived
	// from the run seed alone so churn is identical at any worker count.
	scn      *scenario.Scenario
	churnRng *randx.Rand
	// mixBuf is the reusable buffer MixWeightsAt fills per arrival.
	mixBuf []float64

	arrivalRng *randx.Rand

	events eventHeap
	seq    uint64
	now    float64

	totalCapacity float64
	meanUnits     float64

	aliveConsumers []*model.Consumer

	// query is the arrival in hand, minted in place (Generator.NextInto):
	// the in-flight ledger copies what it needs, so no arrival's query
	// outlives the next one.
	query model.Query

	// inflight holds its entries by value: one per query in flight, written
	// at the arrival and deleted at the last completion, with nothing
	// allocated per query.
	inflight map[uint64]inflightQuery

	// response-time aggregates: whole-run and since-last-sample.
	respHist                   *stats.Histogram
	respSum, respMax           float64
	respCount                  uint64
	windowRespSum              float64
	windowRespCount            int
	issued, completed, dropped uint64

	departuresP []Departure
	departuresC []Departure
	joinsP      []Departure
	samples     []Sample
	autonomy    Autonomy

	// medErr keeps the first mediation error that was not the expected
	// ErrNoProviders drop — a strategy or wiring bug the run surfaces via
	// Result.Err instead of swallowing.
	medErr error

	smoothAlpha    float64
	smoothInterval float64

	// tl streams a timeline.Snapshot per metric sample to Options.Timeline;
	// nil when no sink is configured. Strictly an observer — see the field
	// doc on Options.Timeline for the determinism contract.
	tl *timelineEmitter
}

type inflightQuery struct {
	issuedAt  float64
	remaining int
	// consumer and servers support the reputation-feedback extension
	// (Config.ReputationFeedbackAlpha); nil when it is disabled.
	consumer *model.Consumer
	servers  []*model.Provider
	class    int
}

// Run builds and runs one simulation, then closes opts.Timeline (when
// set). It returns the first error among New, the sink's Append
// (Engine.TimelineErr), its Close and Result.Err; a sink error fails the
// call but never the Result, which stays what it would be without a sink.
func Run(opts Options) (*Result, error) {
	eng, err := New(opts)
	if err != nil {
		if opts.Timeline != nil {
			opts.Timeline.Close()
		}
		return nil, err
	}
	res := eng.Run()
	if opts.Timeline != nil {
		if err := cmp.Or(eng.TimelineErr(), opts.Timeline.Close()); err != nil {
			return nil, fmt.Errorf("timeline: %w", err)
		}
	}
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

// New builds an engine from the options, constructing the population from
// the run seed. Returns an error if the options are invalid.
func New(opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	master := randx.New(opts.Seed)
	popRng := master.Split()
	genRng := master.Split()
	arrRng := master.Split()
	// The churn stream is split last: the draws above come from master
	// positions that do not depend on it, so scenario-free runs stay
	// byte-identical to the pre-scenario implementation.
	churnRng := master.Split()

	pop := model.NewPopulation(opts.Config, popRng, 0)
	gen := workload.NewGenerator(opts.Config.QueryClasses, opts.Config.QueryN, genRng)
	gen.SetClassWeights(opts.Config.ClassWeights())
	e := &Engine{
		opts:          opts,
		pop:           pop,
		med:           mediator.New(opts.Strategy),
		index:         matchmaking.BuildIndex(pop),
		gen:           gen,
		arrivalRng:    arrRng,
		totalCapacity: pop.TotalCapacity(),
		meanUnits:     opts.Config.MeanQueryUnitsWeighted(),
		inflight:      make(map[uint64]inflightQuery),
		respHist:      stats.DefaultResponseHistogram(),
		autonomy:      opts.Autonomy.withDefaults(),
		load:          opts.Workload,
		scn:           opts.Scenario.Scaled(opts.Duration),
		churnRng:      churnRng,
	}
	if e.scn != nil && e.scn.Load != nil {
		e.load = e.scn.Load
	}
	if opts.Timeline != nil {
		e.tl = &timelineEmitter{sink: opts.Timeline}
	}
	// The indexed matchmaker replaces the naive full-population scan: the
	// mediator sees only the O(|Pq|) candidate subset per query. In the
	// paper's homogeneous setup both procedures return the identical
	// ID-ordered alive set, so simulations stay byte-identical.
	e.med.Match = e.index
	e.aliveConsumers = append(e.aliveConsumers, pop.Consumers...)
	e.smoothAlpha, e.smoothInterval = opts.smoothingDefaults()
	return e, nil
}

// Population exposes the engine's population (read-mostly; used by
// experiments for class totals and by examples).
func (e *Engine) Population() *model.Population { return e.pop }

// MatchIndex exposes the engine's capability index (read-only; tests
// inspect posting lists to assert the matchmaking state).
func (e *Engine) MatchIndex() *matchmaking.Index { return e.index }

// Run executes the simulation and returns its result. It can be called
// once per engine.
func (e *Engine) Run() *Result {
	// Churn waves are scheduled first so a wave at t=0 (an initially
	// degraded system) applies before the first arrival mediates.
	if e.scn != nil {
		for i := range e.scn.Waves {
			e.schedule(e.scn.Waves[i].Time, evChurn, uint64(i))
		}
	}
	e.scheduleNextArrival()
	e.schedule(e.smoothInterval, evSmooth, 0)
	if e.opts.SampleInterval > 0 {
		e.schedule(e.opts.SampleInterval, evSample, 0)
	}
	if e.opts.Autonomy.enabled() {
		first := e.autonomy.Grace
		if first <= 0 {
			first = e.autonomy.CheckInterval
		}
		e.schedule(first, evDepartureCheck, 0)
	}

	for len(e.events) > 0 {
		ev := e.events.pop()
		if ev.time > e.opts.Duration {
			break
		}
		e.now = ev.time
		switch ev.kind {
		case evArrival:
			e.handleArrival()
		case evCompletion:
			e.handleCompletion(ev.qid)
		case evSample:
			e.takeSample()
			e.schedule(e.now+e.opts.SampleInterval, evSample, 0)
		case evDepartureCheck:
			e.checkDepartures()
			e.schedule(e.now+e.autonomy.CheckInterval, evDepartureCheck, 0)
		case evSmooth:
			e.smoothAssessments()
			e.schedule(e.now+e.smoothInterval, evSmooth, 0)
		case evChurn:
			e.applyWave(e.scn.Waves[ev.qid])
		}
	}
	e.now = e.opts.Duration
	return e.buildResult()
}

// scheduleNextArrival draws the next Poisson inter-arrival from the current
// workload fraction, damped by the fraction of consumers still present
// (fewer consumers, fewer queries — Section 6.3.2).
func (e *Engine) scheduleNextArrival() {
	if len(e.aliveConsumers) == 0 {
		return
	}
	frac := e.load.Fraction(e.now)
	rate := workload.ArrivalRate(frac, e.totalCapacity, e.meanUnits)
	rate *= float64(len(e.aliveConsumers)) / float64(len(e.pop.Consumers))
	if rate <= 0 {
		// Idle profile: poll again in a second of sim-time.
		e.schedule(e.now+1, evArrival, 0)
		return
	}
	e.schedule(e.now+e.arrivalRng.Exp(rate), evArrival, 0)
}

func (e *Engine) handleArrival() {
	defer e.scheduleNextArrival()
	if len(e.aliveConsumers) == 0 {
		return
	}
	// An arrival scheduled while the profile was idle is just a poll.
	if workload.ArrivalRate(e.load.Fraction(e.now), e.totalCapacity, e.meanUnits) <= 0 {
		return
	}
	c := e.aliveConsumers[e.arrivalRng.Pick(len(e.aliveConsumers))]
	if e.scn != nil && len(e.scn.Mix) > 0 {
		// Time-varying class mix: re-weight the generator at the arrival's
		// instant. One Float64 is drawn per query either way, so enabling
		// a mix never changes the number of RNG draws.
		e.mixBuf = e.scn.MixWeightsAt(e.now, e.mixBuf)
		e.gen.SetClassWeights(e.mixBuf)
	}
	q := &e.query
	e.gen.NextInto(q, e.now, c)
	e.issued++

	alloc, err := e.med.Allocate(e.now, q, e.pop)
	if err != nil {
		// A query no registered provider can treat (empty posting list —
		// the class every specialist skipped, or a drained system) is a
		// dropped query, not a bug. Anything else is a wiring error the
		// run must surface.
		if !errors.Is(err, mediator.ErrNoProviders) && e.medErr == nil {
			e.medErr = err
		}
		e.dropped++
		return
	}
	if len(alloc.Selected) == 0 {
		// The allocator selected nobody (an empty Selected set is a legal
		// strategy outcome). Registering it in-flight would leak: with
		// remaining=0 no completion event ever deletes the entry, so the
		// query would count as issued but never complete nor drop.
		e.dropped++
		return
	}
	fl := inflightQuery{issuedAt: q.IssuedAt, remaining: len(alloc.Selected)}
	if e.opts.Config.ReputationFeedbackAlpha > 0 {
		fl.consumer = q.Consumer
		fl.servers = alloc.SelectedProviders()
		fl.class = q.Class
	}
	e.inflight[q.ID] = fl
	// Walk the selection in place — SelectedProviders would copy, and this
	// runs once per arrival on the zero-allocation mediation path.
	for _, idx := range alloc.Selected {
		done := alloc.Pq[idx].Assign(e.now, q.Units)
		e.schedule(done, evCompletion, q.ID)
	}
}

func (e *Engine) handleCompletion(qid uint64) {
	fl, ok := e.inflight[qid]
	if !ok {
		return
	}
	fl.remaining--
	if fl.remaining > 0 {
		e.inflight[qid] = fl
		return
	}
	delete(e.inflight, qid)
	rt := e.now - fl.issuedAt
	e.completed++
	e.respHist.Observe(rt)
	e.respSum += rt
	if rt > e.respMax {
		e.respMax = rt
	}
	e.respCount++
	e.windowRespSum += rt
	e.windowRespCount++

	// Reputation-feedback extension: the consumer rates every provider
	// that served the query with its private preference for it.
	if fl.consumer != nil {
		alpha := e.opts.Config.ReputationFeedbackAlpha
		for _, p := range fl.servers {
			e.pop.RecordFeedback(p, fl.consumer.Preference(p, fl.class), alpha)
		}
	}
}

// applyWave executes one scheduled churn event of the scenario. Victims
// are drawn from the dedicated churn RNG stream and applied in ascending
// ID order, so the wave is deterministic under the run seed and the
// departure ledger stays ID-sorted within a wave.
func (e *Engine) applyWave(w scenario.Wave) {
	switch w.Kind {
	case scenario.WaveOutage:
		pool := e.pop.AliveProviders()
		picked := pickWave(e.churnRng, pool, w)
		for _, p := range picked {
			e.depart(p, model.ReasonOutage)
		}
	case scenario.WaveRejoin:
		// Only outage victims are eligible: autonomy departures are the
		// participant's own permanent decision (Section 6.3.2).
		pool := make([]*model.Provider, 0)
		for _, p := range e.pop.Providers {
			if p.DepartReason() == model.ReasonOutage {
				pool = append(pool, p)
			}
		}
		picked := pickWave(e.churnRng, pool, w)
		for _, p := range picked {
			p.Rejoin()
			e.index.Add(p)
			e.joinsP = append(e.joinsP, e.ledger(p, model.ReasonNone))
		}
	}
}

// depart takes p out of the system for reason now: p's own record, every
// posting list of the match index (an announced departure, so no lookup
// pays for it later) and the departure ledger, the one record of when p
// left.
func (e *Engine) depart(p *model.Provider, reason model.DepartureReason) {
	p.Depart(reason)
	e.index.Remove(p)
	e.departuresP = append(e.departuresP, e.ledger(p, reason))
}

// ledger is p's entry, for reason, in a departure or join ledger now.
func (e *Engine) ledger(p *model.Provider, reason model.DepartureReason) Departure {
	return Departure{Time: e.now, ID: p.ID, Reason: reason, Interest: p.InterestClass, Adapt: p.AdaptClass, Cap: p.CapClass}
}

// pickWave selects the wave's victims from the eligible pool: a uniform
// draw without replacement of TargetCount providers, returned in ID order.
func pickWave(rng *randx.Rand, pool []*model.Provider, w scenario.Wave) []*model.Provider {
	n := w.TargetCount(len(pool))
	if n == 0 {
		return nil
	}
	perm := rng.Perm(len(pool))
	picked := make([]*model.Provider, n)
	for i := 0; i < n; i++ {
		picked[i] = pool[perm[i]]
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].ID < picked[j].ID })
	return picked
}

// takeSample snapshots the §4 metrics over the alive participants.
func (e *Engine) takeSample() {
	s := e.snapshot()
	e.samples = append(e.samples, s)
	if e.tl != nil {
		e.tl.emit(e, s)
	}
}

func (e *Engine) snapshot() Sample {
	s := Sample{
		Time:             e.now,
		WorkloadFraction: e.load.Fraction(e.now),
		ProvSatIntention: metrics.Summarize(e.pop.ProviderValues(true, func(p *model.Provider) float64 {
			return p.Public.Satisfaction()
		})),
		ProvSatPreference: metrics.Summarize(e.pop.ProviderValues(true, func(p *model.Provider) float64 {
			return p.SmoothSat
		})),
		ProvAllocSatPreference: metrics.Summarize(e.pop.ProviderValues(true, func(p *model.Provider) float64 {
			if p.SmoothAdq == 0 {
				return 1
			}
			return clampAllocSat(p.SmoothSat / p.SmoothAdq)
		})),
		ProvAdequationPreference: metrics.Summarize(e.pop.ProviderValues(true, func(p *model.Provider) float64 {
			return p.SmoothAdq
		})),
		ConsSat: metrics.Summarize(e.pop.ConsumerValues(true, func(c *model.Consumer) float64 {
			return c.Tracker.Satisfaction()
		})),
		ConsAllocSat: metrics.Summarize(e.pop.ConsumerValues(true, func(c *model.Consumer) float64 {
			return clampAllocSat(c.Tracker.AllocationSatisfaction())
		})),
		Utilization: metrics.Summarize(e.pop.ProviderValues(true, func(p *model.Provider) float64 {
			return p.MeasuredLoad(e.now)
		})),
		AliveProviders:         len(e.pop.AliveProviders()),
		AliveConsumers:         len(e.aliveConsumers),
		ProviderDepartureCount: len(e.departuresP),
		ProviderJoinCount:      len(e.joinsP),
		ConsumerDepartureCount: len(e.departuresC),
	}
	if e.windowRespCount > 0 {
		s.ResponseTimeMean = e.windowRespSum / float64(e.windowRespCount)
		s.ResponseCount = e.windowRespCount
	}
	e.windowRespSum, e.windowRespCount = 0, 0
	return s
}

// smoothAssessments folds the current tracker readings into every alive
// participant's long-run self-assessment (Definition 8's exponent and the
// departure rules consult it).
func (e *Engine) smoothAssessments() {
	for _, p := range e.pop.Providers {
		if p.Alive() {
			p.Smooth(e.smoothAlpha, e.now)
		}
	}
	for _, c := range e.aliveConsumers {
		c.Smooth(consumerSmoothingAlpha)
	}
}

// checkDepartures applies the Section 6.3.2 rules. The "optimal
// utilization" of a provider equals the current workload fraction (the
// paper: at 80% workload the optimal utilization is 0.8). Dissatisfaction
// is judged on the participants' long-run self-assessment of their
// private, preference-based characteristics (see Options.SmoothingAlpha).
// One index-order pass evaluates and applies: a participant's verdict reads
// only its own smoothed state and the current optimal, so an earlier
// departure in the pass cannot change a later verdict.
func (e *Engine) checkDepartures() {
	optimal := e.load.Fraction(e.now)
	a := e.autonomy
	if a.ProvidersDissatisfaction || a.ProvidersStarvation || a.ProvidersOverutilization {
		for _, p := range e.pop.Providers {
			if !p.Alive() {
				continue
			}
			var reason model.DepartureReason
			switch {
			case a.ProvidersDissatisfaction &&
				p.SmoothSat < p.SmoothAdq-providerDissatMargin:
				reason = model.ReasonDissatisfaction
			case a.ProvidersStarvation &&
				p.SmoothUt < starvationFraction*optimal:
				reason = model.ReasonStarvation
			case a.ProvidersOverutilization &&
				p.SmoothUt > overThreshold(a, optimal):
				reason = model.ReasonOverutilization
			default:
				continue
			}
			e.depart(p, reason)
		}
	}
	if a.ConsumersMayLeave {
		kept := e.aliveConsumers[:0]
		for _, c := range e.aliveConsumers {
			if c.SmoothSat < c.SmoothAdq-a.ConsumerDissatMargin {
				c.Depart(model.ReasonDissatisfaction)
				e.departuresC = append(e.departuresC, Departure{
					Time: e.now, ID: c.ID, Reason: model.ReasonDissatisfaction,
				})
				continue
			}
			kept = append(kept, c)
		}
		e.aliveConsumers = kept
	}
}

// overThreshold is the utilization above which a provider flees: 220% of
// its optimal utilization, floored at OverutilizationFloor (see Autonomy).
func overThreshold(a Autonomy, optimal float64) float64 {
	thr := a.OverutilizationFactor * optimal
	if thr < a.OverutilizationFloor {
		thr = a.OverutilizationFloor
	}
	return thr
}

func (e *Engine) buildResult() *Result {
	final := e.snapshot()
	if e.tl != nil {
		e.tl.emit(e, final)
	}
	r := &Result{
		Method:             e.opts.Strategy.Name(),
		Seed:               e.opts.Seed,
		Duration:           e.opts.Duration,
		Samples:            e.samples,
		Final:              final,
		IssuedQueries:      e.issued,
		CompletedQueries:   e.completed,
		DroppedQueries:     e.dropped,
		InFlightAtEnd:      len(e.inflight),
		MaxResponseTime:    e.respMax,
		ResponseHistogram:  e.respHist,
		ProviderDepartures: e.departuresP,
		ConsumerDepartures: e.departuresC,
		ProviderJoins:      e.joinsP,
		Providers:          len(e.pop.Providers),
		Consumers:          len(e.pop.Consumers),
		Err:                e.medErr,
	}
	if e.scn != nil {
		r.Scenario = e.scn.Name
	}
	if e.respCount > 0 {
		r.MeanResponseTime = e.respSum / float64(e.respCount)
	}
	return r
}

// ClassTotals returns how many providers of a population built from cfg
// sit at each level of a class dimension (model.ClassCounts); the
// denominator of the Table 3 per-class percentages.
func ClassTotals(cfg model.Config, dim ClassDimension) [3]int {
	shares := cfg.CapacityShares
	switch dim {
	case ByInterest:
		shares = cfg.InterestShares
	case ByAdaptation:
		shares = cfg.AdaptShares
	}
	return model.ClassCounts(cfg.Providers, shares)
}
