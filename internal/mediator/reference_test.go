package mediator_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/intention"
	"sqlb/internal/matchmaking"
	"sqlb/internal/mediator"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/satisfaction"
	"sqlb/internal/scenario"
	"sqlb/internal/sim"
	"sqlb/internal/workload"
)

// The mediation paths keep state across mediations (memo, rows, a batch's
// per-class vectors, posting lists) and skip work (bounds, pruned scores).
// They are accepted on one ground: reference, a naive Algorithm 1 read
// straight off the paper, takes the same decisions on a same-seed twin
// population and leaves the same state behind, whatever a byte script does
// between mediations. docs/ARCHITECTURE.md, "Equivalence: one reference",
// says what the canonical trace holds.

// reference is Algorithm 1 without an index, a memo, a row store, a bound
// or a scratch buffer.
type reference struct {
	pop      *model.Population
	capable  bool                // Pq is the class's advertisers, as the index answers; else every alive provider
	strategy allocator.Allocator // a twin of production's, handed exact vectors; nil is SQLB, ranked here
	apply    bool                // enqueue each query on its selected providers after the commit
}

// mediation is the canonical trace of one mediation.
type mediation struct {
	err      error
	pq       []int // provider IDs, in Pq order
	selected []int // indexes into pq, best first
	ci, pi   []float64
	scores   []float64 // Definition 9 of each selected provider
	gathered []float64 // production's PI as the strategy found it
}

// match is line 1: a full scan of the population.
func (r *reference) match(class int) []*model.Provider {
	var pq []*model.Provider
	for _, p := range r.pop.Providers {
		if p.Alive && (!r.capable || class < len(r.pop.Classes) && p.CanServe(class)) {
			pq = append(pq, p)
		}
	}
	return pq
}

// providerIntentions is Definition 8 on each provider's raw inputs.
func providerIntentions(class int, pq []*model.Provider, now float64) []float64 {
	pi := make([]float64, len(pq))
	for i, p := range pq {
		pi[i] = intention.Provider(p.Preference(class), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
	}
	return pi
}

// decide is lines 2-10 for q over pq, given PI⃗: Definition 7 for CI⃗,
// Equation 6 and Definition 9 for every candidate, and a full stable sort
// (higher score first, NaN below every number, lower index among equals).
func (r *reference) decide(now float64, q *model.Query, pq []*model.Provider, pi []float64) mediation {
	if len(pq) == 0 {
		return mediation{err: mediator.ErrNoProviders}
	}
	m := mediation{pi: pi, ci: make([]float64, len(pq))}
	consumerSat, providerSat := q.Consumer.Tracker.Satisfaction(), make([]float64, len(pq))
	scores := make([]float64, len(pq))
	for i, p := range pq {
		m.pq = append(m.pq, p.ID)
		m.ci[i] = intention.Consumer(q.Consumer.Preference(p, q.Class), p.Reputation, q.Consumer.Upsilon, q.Consumer.Epsilon)
		providerSat[i] = p.Public.Satisfaction()
		scores[i] = core.Score(pi[i], m.ci[i], core.Omega(consumerSat, providerSat[i]), 0)
	}
	if r.strategy != nil {
		m.selected = slices.Clone(r.strategy.Allocate(&allocator.Request{
			Query: q, Pq: pq, CI: m.ci, PI: pi, ConsumerSat: consumerSat, ProviderSat: providerSat, Now: now,
		}))
	} else {
		order := make([]int, len(pq))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			sa, sb := scores[order[a]], scores[order[b]]
			return sa > sb || sa == sa && sb != sb
		})
		m.selected = order[:min(max(q.N, 1), len(pq))]
	}
	for _, i := range m.selected {
		m.scores = append(m.scores, scores[i])
	}
	return m
}

// commit is the result notification: Equations 1-2 into the consumer's
// window, the shown intention into each provider's public window and its
// preference into its private one, selected or not.
func (r *reference) commit(now float64, q *model.Query, pq []*model.Provider, m *mediation) {
	q.Consumer.Tracker.RecordAllocation(m.ci, m.selected, q.N)
	for i, p := range pq {
		performed := slices.Contains(m.selected, i)
		p.Public.Record(m.pi[i], performed)
		p.Private.Record(p.Preference(q.Class), performed)
	}
	if r.apply {
		for _, i := range m.selected {
			pq[i].Assign(now, q.Units)
		}
	}
}

// mediate runs qs in order at one clock reading. In one turn — the
// contract of MediateBatch — Pq and PI⃗ of a class the population defines
// are taken once, at the class's first query; otherwise each query takes
// its own.
func (r *reference) mediate(now float64, qs []*model.Query, oneTurn bool) []mediation {
	type vectors struct {
		pq []*model.Provider
		pi []float64
	}
	turn := map[int]vectors{}
	out := make([]mediation, len(qs))
	for i, q := range qs {
		v, ok := turn[q.Class]
		if !ok {
			v.pq = r.match(q.Class)
			v.pi = providerIntentions(q.Class, v.pq, now)
			if oneTurn && q.Class >= 0 && q.Class < len(r.pop.Classes) {
				turn[q.Class] = v
			}
		}
		if out[i] = r.decide(now, q, v.pq, v.pi); out[i].err == nil {
			r.commit(now, q, v.pq, &out[i])
		}
	}
	return out
}

// vacuity counts what shows the mechanisms ran: PI slots the gather left
// as bounds, those of them a strategy resolved, and mediations that read a
// kept consumer-intention row (no Definition 7 evaluation).
type vacuity struct{ deferred, resolved, reused int }

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// piHolds is Allocation.PI's contract for one slot: Definition 8's exact
// bits, or an upper bound ≤ −1 of them.
func piHolds(got, exact float64) bool { return sameFloat(got, exact) || exact <= got && got <= -1 }

// diff compares a production trace with the reference's. A strategy that
// consults PI must have seen every selected provider's exact intention and
// scored it as the reference did; one that does not must resolve nothing.
func diff(got, want *mediation, consultsPI bool, v *vacuity) error {
	if want.err != nil || got.err != nil {
		if !errors.Is(got.err, mediator.ErrNoProviders) || want.err == nil {
			return fmt.Errorf("error %v, reference error %v", got.err, want.err)
		}
		return nil
	}
	if !slices.Equal(got.pq, want.pq) || !slices.Equal(got.selected, want.selected) {
		return fmt.Errorf("Pq %v selected %v; reference Pq %v selected %v", got.pq, got.selected, want.pq, want.selected)
	}
	for i, exact := range want.pi {
		if !sameFloat(got.ci[i], want.ci[i]) {
			return fmt.Errorf("p%d: CI %v, reference %v", want.pq[i], got.ci[i], want.ci[i])
		}
		if !piHolds(got.gathered[i], exact) || !piHolds(got.pi[i], exact) {
			return fmt.Errorf("p%d: PI gathered %v and left %v, reference %v", want.pq[i], got.gathered[i], got.pi[i], exact)
		}
		if !consultsPI && !sameFloat(got.gathered[i], got.pi[i]) {
			return fmt.Errorf("p%d: PI resolved for a strategy that reads none", want.pq[i])
		}
		if !sameFloat(got.gathered[i], exact) {
			v.deferred++
			if sameFloat(got.pi[i], exact) {
				v.resolved++
			}
		}
	}
	for j, i := range want.selected {
		if consultsPI && (!sameFloat(got.pi[i], want.pi[i]) || !sameFloat(got.scores[j], want.scores[j])) {
			return fmt.Errorf("selected p%d: PI %v score %v, reference %v and %v", want.pq[i], got.pi[i], got.scores[j], want.pi[i], want.scores[j])
		}
	}
	return nil
}

// probe wraps the production strategy and notes, per call, PI as
// gathered, the Definition 9 score of each provider it selected from what
// the request showed, and whether the mediator evaluated Definition 7
// (its unexported count, read as internal/sim's TestWorkCounts does).
type probe struct {
	allocator.Allocator
	med   reflect.Value // the Mediator, when the vacuity check counts rows
	last  uint64
	calls []mediation
	v     *vacuity
}

func (p *probe) Allocate(req *allocator.Request) []int {
	m := mediation{gathered: slices.Clone(req.PI)}
	selected := p.Allocator.Allocate(req)
	for _, i := range selected {
		m.scores = append(m.scores, core.Score(req.PI[i], req.CI[i], core.Omega(req.ConsumerSat, req.ProviderSatisfaction(i)), 0))
	}
	if p.med.IsValid() {
		if n := p.med.FieldByName("rows").FieldByName("evals").Uint(); n == p.last {
			p.v.reused++
		} else {
			p.last = n
		}
	}
	p.calls = append(p.calls, m)
	return selected
}

// trace turns an entrance's outcome, and the strategy call it made if it
// made one, into a trace.
func (p *probe) trace(a *mediator.Allocation, err error) mediation {
	if err != nil {
		return mediation{err: err}
	}
	m := p.calls[0]
	p.calls = p.calls[1:]
	m.selected = slices.Clone(a.Selected)
	m.ci, m.pi = slices.Clone(a.CI), slices.Clone(a.PI)
	for _, q := range a.Pq {
		m.pq = append(m.pq, q.ID)
	}
	return m
}

// samePopulations compares, for every participant, everything a mediation
// writes and everything Definitions 7-9 read of it: the satisfaction
// windows, the queue and the utilization window, the self-assessment and
// whether it is registered. Where production's windows are views of a
// stream, or rings materialized from one, and the reference's twin records
// rings from the start, a window is compared by what it reads; otherwise
// word by word. A whole-struct comparison would also
// compare the Definition 8 memo, which only the production side fills.
func samePopulations(got, want *model.Population) error {
	same := sameTracker
	if got.Stream() != nil {
		same = sameReads
	}
	for i, w := range want.Providers {
		g := got.Providers[i]
		for _, side := range []struct {
			name      string
			got, want *satisfaction.ProviderTracker
		}{{"public", g.Public, w.Public}, {"private", g.Private, w.Private}} {
			if !same(side.got, side.want) {
				return fmt.Errorf("provider %d: %s satisfaction window reads δa %v δs %v over %d/%d, reference %v %v over %d/%d", i, side.name,
					side.got.Adequation(), side.got.Satisfaction(), side.got.Performed(), side.got.Proposed(),
					side.want.Adequation(), side.want.Satisfaction(), side.want.Performed(), side.want.Proposed())
			}
		}
		if !sameBits(reflect.ValueOf(g.Util), reflect.ValueOf(w.Util)) || !sameFloat(g.BusyUntil, w.BusyUntil) ||
			g.QueriesPerformed != w.QueriesPerformed || g.Alive != w.Alive || !sameFloat(g.SmoothSat, w.SmoothSat) {
			return fmt.Errorf("provider %d: queue, self-assessment or registration differs from the reference's", i)
		}
	}
	for i, w := range want.Consumers {
		if !sameBits(reflect.ValueOf(got.Consumers[i].Tracker), reflect.ValueOf(w.Tracker)) {
			return fmt.Errorf("consumer %d: satisfaction window differs from the reference's", i)
		}
	}
	return nil
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so that
// a NaN a hostile script wrote equals itself.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameBits(a.Elem(), b.Elem()))
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return sameFloat(a.Float(), b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("sameBits: " + a.Kind().String())
}

// sameReads compares two provider trackers by everything they answer:
// Definitions 4 and 5 by their bits, and the proposed and performed counts.
func sameReads(a, b *satisfaction.ProviderTracker) bool {
	return sameFloat(a.Adequation(), b.Adequation()) && sameFloat(a.Satisfaction(), b.Satisfaction()) &&
		a.Proposed() == b.Proposed() && a.Performed() == b.Performed()
}

// sameTracker is sameBits for a provider tracker, reading only its own k
// slots of the cohort block its ring spans.
func sameTracker(a, b *satisfaction.ProviderTracker) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).Name != "ring" && !sameBits(va.Field(i), vb.Field(i)) {
			return false
		}
	}
	ra, rb, stride := va.FieldByName("ring"), vb.FieldByName("ring"), int(va.FieldByName("stride").Int())
	for s := 0; s < ra.Len(); s += stride {
		if ra.Index(s).Uint() != rb.Index(s).Uint() {
			return false
		}
	}
	return true
}

// strategies are the five methods; consultsPI marks those that read PI.
var strategies = []struct {
	build      func() allocator.Allocator
	consultsPI bool
}{
	{func() allocator.Allocator { return allocator.NewSQLB() }, true},
	{func() allocator.Allocator { return allocator.NewSQLBEconomic() }, true},
	{func() allocator.Allocator { return allocator.NewCapacityBased() }, false},
	{func() allocator.Allocator { return allocator.NewMariposaLike() }, false},
	{func() allocator.Allocator { return allocator.NewRandom(5) }, false},
}

const (
	sqlbMethod = iota // the reference ranks SQLB itself
	sqlbEcon
	capacityBased
	mariposa
	random
)

// The three population shapes a script runs on, each with two consumers
// holding a preference matrix and two with hashed preferences, υ < 1 so
// that reputations count, and windows short enough to wrap.
const (
	homogeneous = iota // every provider serves the three classes: one Pq of 100
	narrow             // 128 classes, specialists laid out class-major, |Pq| ≈ 15
	mixed              // specialists and generalists over three classes, |Pq| ≈ 80
)

func population(shape int) *model.Population {
	cfg := model.DefaultConfig().WithClasses(3)
	cfg.Consumers, cfg.Providers, cfg.Upsilon = 2, 100, 0.6
	cfg.ConsumerK, cfg.ProviderK, cfg.PriorSamples = 3, 8, 4
	switch shape {
	case narrow:
		cfg = cfg.WithClasses(128)
		cfg.Providers, cfg.CapabilitySelectivity, cfg.GeneralistShare = 256, 1.0/128, 0.05
	case mixed:
		cfg.CapabilitySelectivity, cfg.GeneralistShare = 0.67, 0.3
	}
	pop := model.NewPopulation(cfg, randx.New(3), 0)
	cfg.HashedConsumerPrefs, cfg.Providers = true, 1
	pop.Consumers = append(pop.Consumers, model.NewPopulation(cfg, randx.New(4), 0).Consumers...)
	return pop
}

// The script header: the entrance plus applied, the strategy, the shape
// plus indexed.
const (
	viaAllocate = iota // the simulator's entrance; the script applies the selection
	viaMediate
	viaBatch
	viaOther     // Allocate on a second mediator (opOtherMediator only)
	applied  = 3 // the selection is enqueued on the selected providers
	indexed  = 3 // Pq comes from the match index; otherwise the mediator's nil scan
)

// The script's operations: an opcode byte, then operand bytes as the
// operation needs them (missing bytes read as zero). Codes past
// opOtherMediator mediate too, so random scripts are about a quarter
// mediations.
const (
	opMediate      = iota // 1-5 queries, a batch for MediateBatch: consumer, class, q.n each
	opStep                // a short clock step
	opJump                // past the utilization window: everything assigned ages out
	opHostileClock        // opMediate at a clock reading the simulator never produces
	opAssign              // an ordinary assignment
	opOverload            // enough work to push the load over 1 ...
	opDrain               // ... and the wait that drains it back under
	opHostileUnits        // an assignment of hostile work units
	opProviderPref        // SetPreference on a provider
	opConsumerPref        // SetPreference on a consumer, dense or hashed
	opWrite               // δs, ε, load horizon or reputation of a provider; υ or ε of a consumer
	opFeedback            // RecordFeedback
	opSmooth              // every provider re-assesses
	opSetCaps             // SetCapabilities, Remove → edit → Add on the index
	opClearCaps           // ClearCapabilities, the same way
	opLeave               // an announced departure
	opFail                // a silent one: the index prunes it at its next lookup
	opRejoin
	opRecordPrivate // a direct Private.Record on a provider: preference class, performed
	opOtherMediator // opMediate through a second mediator over the same population
	opCodes         = opOtherMediator + 6
)

// scriptFloats are the operands scripted writes draw from: signed zeros,
// subnormals, the edges of each input's domain, the load threshold of
// Definition 8's positive branch from both sides, out-of-range magnitudes,
// ±Inf and NaN.
var scriptFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-310, 1e-17, -1e-17, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75,
	1 - 1e-16, 1, 1 + 1e-16, 2, 3, 60, -0.3, -1, -2.5, 1e17, -1e17, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// mint makes query id from its script bytes: q.n ∈ {1, 4, |Pq|}, and a
// class the population defines, or −1, one past the end, one past that,
// or 2⁴⁰.
func mint(pop *model.Population, id int, consumer, class, n byte) *model.Query {
	k := len(pop.Classes)
	c, units := int(class)%(k+3)-1, 130.0
	if c == k+1 {
		c = 1 << 40
	} else if c >= 0 && c < k {
		units = pop.Classes[c].Units
	}
	return &model.Query{ID: uint64(id), Consumer: pop.Consumers[int(consumer)%len(pop.Consumers)],
		Class: c, Units: units, N: [3]int{1, 4, 1 << 20}[n%3]}
}

// runMediation interprets script on a production entrance and the
// reference, each over its own same-seed population, and fails at the
// first mediation whose traces or populations differ.
func runMediation(t *testing.T, script []byte, v *vacuity) {
	t.Helper()
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	h0, h1, h2 := next(), next(), next()
	entrance, apply := int(h0)%3, h0/3%2 == 1
	si, shape, isIndexed := int(h1)%len(strategies), int(h2)%3, h2/3%2 == 1
	st := strategies[si]
	pops := [2]*model.Population{population(shape), population(shape)} // production, reference
	prod, twin := pops[0], pops[1]
	ref := &reference{pop: twin, capable: isIndexed, apply: apply}
	if si != sqlbMethod {
		ref.strategy = st.build()
	}
	pr := &probe{Allocator: st.build(), v: v}
	now := 0.0
	var (
		med   *mediator.Mediator
		srv   *mediator.Server
		index *matchmaking.Index
	)
	if isIndexed {
		index = matchmaking.BuildIndex(prod)
	}
	if entrance == viaAllocate {
		med = mediator.New(pr)
		if isIndexed {
			med.Match = index
		}
		pr.med = reflect.ValueOf(med).Elem()
	} else {
		srv = mediator.NewServer(pr, prod, 0, func() float64 { return now })
		if isIndexed {
			srv.SetMatchmaker(index)
		}
		srv.SetApply(apply)
		pr.med = reflect.ValueOf(srv).Elem().FieldByName("med").Elem()
	}

	// other is a second mediator over production's population, sharing
	// the strategy (and so a random strategy's draws) with the first.
	other := mediator.New(pr)
	if isIndexed {
		other.Match = index
	}
	value := func() float64 { return scriptFloats[int(next())%len(scriptFloats)] }
	classes := len(prod.Classes)
	class := func() int { return int(next()) % (classes + 1) } // one past the end included
	// eachProvider and eachConsumer apply an operation to participant b in
	// both populations; the index is production's.
	eachProvider := func(b byte, f func(p *model.Provider, ix *matchmaking.Index)) {
		i := int(b) % len(prod.Providers)
		f(prod.Providers[i], index)
		f(twin.Providers[i], nil)
	}
	eachConsumer := func(b byte, f func(c *model.Consumer)) {
		i := int(b) % len(prod.Consumers)
		f(prod.Consumers[i])
		f(twin.Consumers[i])
	}
	reregister := func(edit func(p *model.Provider)) func(*model.Provider, *matchmaking.Index) {
		return func(p *model.Provider, ix *matchmaking.Index) {
			if ix != nil {
				ix.Remove(p)
			}
			edit(p)
			if ix != nil && p.Alive {
				ix.Add(p)
			}
		}
	}
	mediate := func(step int, via int) {
		n := 1 + int(next())%5
		qs, twinQs := make([]*model.Query, n), make([]*model.Query, n)
		for i := range qs {
			c, k, qn := next(), next(), next()
			qs[i], twinQs[i] = mint(prod, step*8+i, c, k, qn), mint(twin, step*8+i, c, k, qn)
		}
		want := ref.mediate(now, twinQs, via == viaBatch)
		got := make([]mediation, n)
		switch via {
		case viaAllocate, viaOther:
			m := med
			if via == viaOther {
				// The vacuity count reads the first mediator's rows only.
				defer func(v reflect.Value) { pr.med = v }(pr.med)
				m, pr.med = other, reflect.Value{}
			}
			for i, q := range qs {
				a, err := m.Allocate(now, q, prod)
				if got[i] = pr.trace(a, err); err == nil && apply {
					for _, j := range a.Selected {
						a.Pq[j].Assign(now, q.Units)
					}
				}
			}
		case viaMediate:
			for i, q := range qs {
				got[i] = pr.trace(srv.Mediate(context.Background(), q))
			}
		case viaBatch:
			for i, r := range srv.MediateBatch(context.Background(), qs) {
				got[i] = pr.trace(r.Alloc, r.Err)
			}
		}
		for i := range got {
			if err := diff(&got[i], &want[i], st.consultsPI, v); err != nil {
				t.Fatalf("step %d query %d (class %d, n %d): %v", step, i, qs[i].Class, qs[i].N, err)
			}
		}
		if err := samePopulations(prod, twin); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}

	for step := 0; len(script) > 0; step++ {
		switch op := next() % opCodes; op {
		case opStep:
			now += float64(next()) / 16
		case opJump:
			now += prod.Providers[0].Util.Window() + 1
		case opHostileClock:
			saved := now
			now = value()
			mediate(step, entrance)
			now = saved
		case opAssign:
			who, u := next(), 100+float64(next())
			eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) { p.Assign(now, u) })
		case opOverload:
			who, f := next(), 1+float64(next())/32
			eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) { p.Assign(now, p.Capacity*p.Util.Window()*f) })
		case opDrain:
			if b := prod.Providers[int(next())%len(prod.Providers)].Backlog(now); b > 0 {
				now += b
			}
		case opHostileUnits:
			who, u := next(), value()
			eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) { p.Assign(now, u) })
		case opProviderPref:
			who, c, x := next(), class(), value()
			eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) { p.SetPreference(c, x) })
		case opConsumerPref:
			who, id, x := next(), int(next())%(len(prod.Providers)+1)-1, value()
			eachConsumer(who, func(c *model.Consumer) { c.SetPreference(id, x) })
		case opWrite:
			who, field, x := next(), next()%6, value()
			if field < 4 {
				eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) {
					*[]*float64{&p.SmoothSat, &p.Epsilon, &p.LoadHorizon, &p.Reputation}[field] = x
				})
			} else {
				eachConsumer(who, func(c *model.Consumer) { *[]*float64{&c.Upsilon, &c.Epsilon}[field-4] = x })
			}
		case opFeedback:
			who, rating, alpha := next(), value(), value()
			eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) { p.RecordFeedback(rating, alpha) })
		case opSmooth:
			alpha := float64(next()) / 255
			for _, pop := range pops {
				for _, p := range pop.Providers {
					p.Smooth(alpha, now)
				}
			}
		case opSetCaps:
			who, a, b := next(), class(), class()
			eachProvider(who, reregister(func(p *model.Provider) { p.SetCapabilities([]int{a, b}, classes) }))
		case opClearCaps:
			eachProvider(next(), reregister((*model.Provider).ClearCapabilities))
		case opLeave:
			eachProvider(next(), func(p *model.Provider, ix *matchmaking.Index) {
				if p.Alive = false; ix != nil {
					ix.Remove(p)
				}
			})
		case opFail:
			eachProvider(next(), func(p *model.Provider, _ *matchmaking.Index) { p.Alive = false })
		case opRejoin:
			eachProvider(next(), func(p *model.Provider, ix *matchmaking.Index) {
				if p.Alive = true; ix != nil {
					ix.Add(p)
				}
			})
		case opRecordPrivate:
			who, c, performed := next(), class(), next()%2 == 1
			eachProvider(who, func(p *model.Provider, _ *matchmaking.Index) { p.Private.Record(p.Preference(c), performed) })
		case opOtherMediator:
			mediate(step, viaOther)
		default: // opMediate and the codes past opOtherMediator
			mediate(step, entrance)
		}
	}
}

// seedScripts start the property test and the fuzz corpus. In them
// opMediate takes the number of queries less one, then (consumer, class+1,
// q.n code) per query; a write is (participant, field, scriptFloats index),
// where 8 is 0.4, 10 is 0.6, 19 is −1 and 26 is NaN.
// The first group is Definition 8's memo under repeats, a branch flip in
// both directions, a key changed and changed back, and capability edits
// that move a class to another slot; the second is the consumer-intention
// rows: a mediation, one input changed, the same mediation again; the last
// is one script for each misreading of the paper a commit shared by both
// sides of a pairwise comparison would hide.
var seedScripts = [][]byte{
	{},
	{viaAllocate + applied, sqlbMethod, homogeneous, opAssign, 3, 10, opMediate, 0, 0, 1, 1, opStep, 16,
		opMediate, 0, 0, 1, 1, opAssign, 3, 20, opStep, 1, opMediate, 0, 0, 1, 1},
	// pref 0.4 at δs 0.6; overload; drain; overload again.
	{viaAllocate + applied, sqlbMethod, homogeneous, opProviderPref, 7, 1, 8, opWrite, 7, 0, 10, opMediate, 0, 0, 2, 0,
		opOverload, 7, 0, opMediate, 0, 0, 2, 0, opDrain, 7, opMediate, 0, 0, 2, 0, opOverload, 7, 64, opMediate, 0, 0, 2, 2},
	// An overloaded specialist: δs 0.4 → 0.6 → 0.4.
	{viaMediate, sqlbMethod, mixed + indexed, opOverload, 3, 0, opWrite, 3, 0, 8, opMediate, 0, 0, 1, 1,
		opWrite, 3, 0, 10, opMediate, 0, 0, 1, 1, opWrite, 3, 0, 8, opMediate, 0, 0, 1, 1},
	// ε and δs through 0, NaN, 1, −Inf; a NaN load horizon.
	{viaMediate, sqlbEcon, homogeneous, opOverload, 3, 4, opWrite, 3, 1, 0, opWrite, 3, 0, 26, opMediate, 0, 0, 1, 2,
		opWrite, 3, 1, 13, opWrite, 3, 0, 25, opMediate, 0, 0, 1, 2, opWrite, 3, 2, 26, opMediate, 0, 0, 1, 2},
	// Capability edits move a class to another slot of the memo row.
	{viaBatch, sqlbMethod, mixed + indexed, opMediate, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1, opSetCaps, 5, 0, 2,
		opMediate, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1, opSetCaps, 5, 1, 2, opMediate, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1,
		opClearCaps, 5, opMediate, 2, 0, 1, 1, 1, 2, 1, 2, 3, 1},
	// NaN and +Inf work units; mediations at NaN and −Inf clocks.
	{viaBatch + applied, sqlbMethod, homogeneous, opHostileUnits, 3, 26, opMediate, 0, 0, 1, 1, opHostileUnits, 4, 24,
		opHostileClock, 26, 1, 1, 2, 1, 0, 3, 1, opHostileClock, 25, 0, 0, 1, 2, opMediate, 0, 0, 1, 1},
	// Re-assessments between mediations.
	{viaAllocate + applied, sqlbMethod, homogeneous, opMediate, 4, 0, 1, 1, 1, 2, 1, 2, 1, 1, 3, 2, 1, 0, 1, 1,
		opSmooth, 200, opMediate, 4, 0, 1, 1, 1, 2, 1, 2, 1, 1, 3, 2, 1, 0, 1, 1, opSmooth, 30, opMediate, 0, 0, 1, 2},

	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 0, 1, 0, opMediate, 0, 0, 1, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 0, 1, 0, opMediate, 0, 0, 2, 0, opMediate, 0, 0, 1, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 0, 1, 0, opWrite, 5, 3, 9, opMediate, 0, 0, 1, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 1, 2, 0, opFeedback, 9, 11, 9, opMediate, 0, 1, 2, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 2, 1, 0, opWrite, 2, 4, 19, opMediate, 0, 2, 1, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 3, 1, 0, opWrite, 3, 5, 6, opMediate, 0, 3, 1, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 0, 2, 0, opConsumerPref, 0, 8, 12, opMediate, 0, 0, 2, 0},
	{viaAllocate, sqlbMethod, mixed + indexed, opMediate, 0, 2, 2, 0, opConsumerPref, 2, 8, 26, opMediate, 0, 2, 2, 0},
	{viaMediate, sqlbMethod, mixed + indexed, opMediate, 0, 0, 1, 0, opLeave, 0, opMediate, 0, 0, 1, 0, opRejoin, 0,
		opMediate, 0, 0, 1, 0},
	{viaBatch, sqlbMethod, mixed + indexed, opMediate, 0, 1, 2, 0, opFail, 2, opMediate, 2, 1, 2, 0, 0, 1, 0, 1, 2, 0},
	{viaBatch + applied, sqlbMethod, homogeneous, opOverload, 1, 9, opOverload, 2, 9, opWrite, 1, 0, 8, opWrite, 2, 0, 10,
		opMediate, 4, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 0, 2, 1, opWrite, 3, 3, 0, opMediate, 2, 0, 1, 0, 1, 1, 0, 0, 1, 2},
	// Many classes: hostile classes, churn, a class nobody serves.
	{viaMediate + applied, capacityBased, narrow + indexed, opMediate, 2, 0, 5, 0, 1, 6, 1, 2, 7, 2, opLeave, 3,
		opMediate, 1, 0, 130, 1, 1, 129, 1, opFail, 4, opMediate, 0, 0, 5, 0, opRejoin, 3, opMediate, 0, 0, 5, 0},
	{viaBatch + applied, mariposa, narrow, opMediate, 4, 0, 5, 0, 1, 6, 1, 2, 5, 2, 3, 0, 0, 0, 0, 0, opStep, 16,
		opMediate, 1, 0, 5, 0, 1, 5, 2},
	{viaAllocate + applied, random, mixed, opMediate, 3, 0, 0, 1, 1, 1, 2, 2, 2, 0, 3, 1, 0, opJump, opMediate, 0, 0, 1, 1},

	// A: the private window records the preference for the query's class.
	// A mixed population's private windows are rings, where that record
	// is written.
	{viaAllocate, capacityBased, mixed, opMediate, 0, 0, 2, 0},
	// B: ω reads the consumer's satisfaction, not its adequation.
	{viaAllocate, sqlbMethod, homogeneous, opMediate, 0, 0, 1, 0, opMediate, 0, 0, 1, 0},
	// D: only the selected providers performed the query.
	{viaMediate, capacityBased, homogeneous, opMediate, 0, 0, 1, 0},
	// E: a reputation write reaches the consumer's kept row.
	{viaAllocate, sqlbMethod, homogeneous, opMediate, 0, 0, 1, 0, opWrite, 7, 3, 19, opMediate, 0, 0, 1, 0},
	// F: a bound resolves to Definition 8 at the load it was taken at.
	{viaAllocate, sqlbMethod, homogeneous, opOverload, 0, 0, opWrite, 0, 0, 8, opMediate, 0, 0, 1, 2},
	// H: Equation 2 divides by q.n, here 4 with four providers selected.
	{viaAllocate, sqlbMethod, homogeneous, opMediate, 0, 0, 1, 1},

	// The private windows of a homogeneous population are views of one
	// stream; each script makes them leave it one way, between runs of
	// mediations long enough to wrap the windows.
	// A departure, announced and silent.
	script([]byte{viaAllocate + applied, sqlbMethod, homogeneous + indexed}, five, five,
		[]byte{opLeave, 5}, five, []byte{opFail, 6}, five, five),
	// A return: the provider comes back with its window, a ring.
	script([]byte{viaMediate, capacityBased, homogeneous}, five, five, []byte{opLeave, 5}, five,
		[]byte{opRejoin, 5}, five, five),
	// SetPreference for the class most mediations carry.
	script([]byte{viaBatch, sqlbMethod, homogeneous + indexed}, five, five, []byte{opProviderPref, 5, 1, 8}, five, five),
	// A capability edit and its undo.
	script([]byte{viaAllocate, sqlbMethod, homogeneous + indexed}, five, five, []byte{opSetCaps, 5, 0, 1}, five,
		[]byte{opClearCaps, 5}, five, five),
	// A direct Private.Record, performed.
	script([]byte{viaAllocate, capacityBased, homogeneous}, five, five, []byte{opRecordPrivate, 5, 1, 1}, five, five),
	// A second mediator over the same population, alternating with the first.
	script([]byte{viaAllocate, sqlbMethod, homogeneous}, five, []byte{opOtherMediator, 4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1, 0, 0, 2, 0},
		five, []byte{opOtherMediator, 1, 0, 1, 0, 1, 2, 0}, five),
	// Hostile classes: −1, one past the end and 2⁴⁰, over every provider.
	script([]byte{viaAllocate, sqlbMethod, homogeneous}, five, []byte{opMediate, 4, 0, 0, 0, 1, 4, 0, 2, 5, 0, 3, 0, 0, 0, 4, 0},
		five, five),

	// The public windows are views of the same stream, shown values other
	// than 0 where pi > −1 and marked where performed; SQLB applies its
	// selections, so the load moves intentions across −1 and back.
	// A departure, announced and silent: both windows leave.
	script([]byte{viaBatch + applied, sqlbMethod, homogeneous + indexed}, five, five, []byte{opOverload, 5, 0}, five,
		[]byte{opLeave, 5}, five, []byte{opFail, 6}, five, five),
	// A Pq that is not the member set: SetPreference sends provider 5's
	// private window off the stream and leaves its public one a member,
	// shown through the per-provider loop; then a capability edit leaves
	// provider 7 out of a class's Pq, and both its windows leave.
	script([]byte{viaMediate + applied, sqlbMethod, homogeneous + indexed}, five, five, []byte{opProviderPref, 5, 1, 8}, five,
		five, []byte{opSetCaps, 7, 0, 1}, five, five),
}

// five is an opMediate of five queries over the three classes.
var five = []byte{opMediate, 4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 1, 0, 0, 2, 0}

// script concatenates a header and operations.
func script(parts ...[]byte) []byte { return slices.Concat(parts...) }

// TestMediationEqualsReference runs the seed corpus, then random scripts.
// Over the corpus the comparison is vacuous unless the mechanisms ran:
// bounds gathered, some of them resolved, rows read again.
func TestMediationEqualsReference(t *testing.T) {
	var v vacuity
	for _, s := range seedScripts {
		runMediation(t, s, &v)
	}
	if v.deferred == 0 || v.resolved == 0 || v.reused == 0 {
		t.Errorf("seed corpus: %d PI slots deferred, %d resolved, %d rows reused", v.deferred, v.resolved, v.reused)
	}
	r := rand.New(rand.NewSource(38))
	for i := 0; i < 300; i++ {
		script := make([]byte, 3+r.Intn(120))
		r.Read(script)
		runMediation(t, script, new(vacuity))
	}
}

func FuzzMediation(f *testing.F) {
	for _, s := range seedScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("longer scripts only repeat shorter ones")
		}
		runMediation(t, script, new(vacuity))
	})
}

// engineCheck is the strategy of a simulation under test: for each
// mediation the engine hands it, it first decides by the reference from
// the live population — nothing of the mediation is committed yet — then
// lets the strategy decide and compares the two.
type engineCheck struct {
	probe
	ref        reference
	consultsPI bool
	mediations int
	err        error
}

func (e *engineCheck) Allocate(req *allocator.Request) []int {
	q := req.Query
	pq := e.ref.match(q.Class)
	want := e.ref.decide(req.Now, q, pq, providerIntentions(q.Class, pq, req.Now))
	selected := e.probe.Allocate(req)
	got := e.probe.trace(&mediator.Allocation{Pq: req.Pq, CI: req.CI, PI: req.PI, Selected: selected}, nil)
	if err := diff(&got, &want, e.consultsPI, e.v); err != nil && e.err == nil {
		e.err = fmt.Errorf("mediation %d (query %d, class %d): %v", e.mediations, q.ID, q.Class, err)
	}
	e.mediations++
	return selected
}

// TestEngineEqualsReference runs the five strategies through the
// simulator's event loop, each over the three population shapes — the
// paper's, specialists over 128 classes under outage and rejoin waves and
// autonomous departures, and ε = 0.3, where negative-branch intentions
// stay above −1 — at 100 % offered load. q.n cycles over {1, 4, |Pq|}
// with the strategy, one step further past SQLB, and offset by the shape,
// so that every shape and every strategy sees all three, and SQLB and
// SQLB-econ, the two that rank on PI, never share a q.n on a shape.
func TestEngineEqualsReference(t *testing.T) {
	paper := model.DefaultConfig().Scale(0.15)
	specialists := model.DefaultConfig().WithClasses(128)
	specialists.Consumers, specialists.Providers, specialists.CapabilitySelectivity = 12, 256, 0.03
	epsilon := model.DefaultConfig().Scale(0.15)
	epsilon.Epsilon = 0.3
	shapes := []struct {
		name string
		cfg  model.Config
	}{{"paper", paper}, {"specialists", specialists}, {"epsilon0.3", epsilon}}
	churn := &scenario.Scenario{Name: "churn", Waves: []scenario.Wave{{Time: 4, Kind: scenario.WaveOutage, Fraction: 0.2},
		{Time: 8, Kind: scenario.WaveRejoin, Fraction: 1}, {Time: 12, Kind: scenario.WaveOutage, Fraction: 0.1}}}
	var v vacuity
	for i, st := range strategies {
		for j, shape := range shapes {
			opts := sim.Options{Config: shape.cfg, Workload: workload.Constant(1),
				Duration: 32, Seed: 77, SmoothingAlpha: 0.3, SmoothingInterval: 2}
			opts.Config.ConsumerK, opts.Config.ProviderK = 20, 50
			opts.Config.QueryN = [3]int{1, 4, 1 << 20}[(i+j+min(i, 1))%3]
			switch j {
			case 0: // both windows are views of the stream until the outage sends a fifth of them off it
				opts.Scenario = churn
			case 1:
				opts.Scenario, opts.Autonomy = churn, sim.FullAutonomy()
			}
			check := &engineCheck{probe: probe{Allocator: st.build(), v: &v}, consultsPI: st.consultsPI}
			if i != sqlbMethod {
				check.ref.strategy = st.build()
			}
			opts.Strategy = check
			t.Run(fmt.Sprintf("%s/%s/n=%d", check.Name(), shape.name, opts.Config.QueryN), func(t *testing.T) {
				eng, err := sim.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				check.ref.pop, check.ref.capable = eng.Population(), true
				if res := eng.Run(); res.Err != nil {
					t.Fatal(res.Err)
				}
				if check.err != nil || check.mediations == 0 {
					t.Errorf("%d mediations, %v", check.mediations, check.err)
				}
			})
		}
	}
	if v.deferred == 0 || v.resolved == 0 {
		t.Errorf("%d PI slots deferred, %d resolved", v.deferred, v.resolved)
	}
}

// TestConsumerPreferenceReadsNoClass pins what lets rows be shared by
// classes: Definition 7 as modelled reads no query class. If
// Consumer.Preference starts reading it, rows must be keyed on the class
// again.
func TestConsumerPreferenceReadsNoClass(t *testing.T) {
	pop := population(mixed)
	for _, c := range pop.Consumers {
		for _, p := range pop.Providers {
			want := c.Preference(p, 0)
			for _, class := range []int{1, 2, 3, -1, 1 << 40, math.MinInt} {
				if got := c.Preference(p, class); !sameFloat(got, want) {
					t.Fatalf("consumer %d provider %d: preference %v for class %d, %v for class 0", c.ID, p.ID, got, class, want)
				}
			}
		}
	}
}
