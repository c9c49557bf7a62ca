package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/model"
	"sqlb/internal/satisfaction"
	"sqlb/internal/scenario"
	"sqlb/internal/workload"
)

// The mediation paths gather an unwilling provider's intention as a
// pow-free bound and compute Definition 8 only for the slots the strategy
// resolves. That is accepted on one ground: a run that resolves every slot
// before the strategy looks — what the gathering loops did before they
// deferred anything — leaves the same canonical per-query trace. traced is
// both halves of that comparison: wrapped around a strategy it records the
// trace, and with eager set it is the resolve-everything oracle.

// queryTrace is what one mediation decided and what an observer may rely on.
type queryTrace struct {
	query    uint64
	pq       []int     // provider ids, in Pq order
	selected []int     // provider ids, best first
	ci       []float64 // as the strategy left them
	gathered []float64 // PI as gathered, before the strategy ran
	pi       []float64 // PI as the strategy left it
	scores   []float64 // Definition 9 of each selected provider, from ci/pi
}

type traced struct {
	inner allocator.Allocator
	eager bool
	log   []queryTrace
	// stale counts the slots the oracle resolved to something else than
	// IntentionAt at the provider's current load, evaluated there and then —
	// the definition, by FuzzProviderIntentionMemo. The two agree wherever
	// nothing moves a provider between gathering and allocation, as on the
	// event loop.
	stale int
}

func (s *traced) Name() string { return s.inner.Name() }

func (s *traced) Allocate(req *allocator.Request) []int {
	tr := queryTrace{query: req.Query.ID, gathered: append([]float64(nil), req.PI...)}
	if s.eager {
		req.ResolvePI()
		for i, p := range req.Pq {
			if math.Float64bits(req.PI[i]) != math.Float64bits(p.IntentionAt(req.Query.Class, p.OperationalLoad(req.Now))) {
				s.stale++
			}
		}
	}
	selected := s.inner.Allocate(req)
	for _, p := range req.Pq {
		tr.pq = append(tr.pq, p.ID)
	}
	tr.ci = append(tr.ci, req.CI...)
	tr.pi = append(tr.pi, req.PI...)
	for _, idx := range selected {
		tr.selected = append(tr.selected, req.Pq[idx].ID)
		omega := core.Omega(req.ConsumerSat, req.ProviderSat[idx])
		tr.scores = append(tr.scores, core.Score(req.PI[idx], req.CI[idx], omega, 0))
	}
	s.log = append(s.log, tr)
	return selected
}

func (c *lazyCounts) add(o lazyCounts) {
	c.candidates += o.candidates
	c.deferred += o.deferred
	c.resolved += o.resolved
}

// compareTraces holds a lazy run's trace against the oracle's: the same
// queries over the same Pq, the same selection, CI bit for bit, PI equal
// under Allocation's contract — exact bits, or an upper bound ≤ −1 of them —
// and every selected provider's score the oracle's.
func compareTraces(t *testing.T, lazy, eager []queryTrace) lazyCounts {
	t.Helper()
	var n lazyCounts
	if len(lazy) != len(eager) {
		t.Fatalf("lazy run mediated %d queries, oracle %d", len(lazy), len(eager))
	}
	bits := math.Float64bits
	for k, l := range lazy {
		e := eager[k]
		if l.query != e.query || !reflect.DeepEqual(l.pq, e.pq) || !reflect.DeepEqual(l.selected, e.selected) {
			t.Fatalf("mediation %d: lazy query %d Pq %v selected %v; oracle query %d Pq %v selected %v",
				k, l.query, l.pq, l.selected, e.query, e.pq, e.selected)
		}
		for i := range l.pq {
			if bits(l.ci[i]) != bits(e.ci[i]) {
				t.Fatalf("mediation %d candidate %d: CI %v, oracle %v", k, i, l.ci[i], e.ci[i])
			}
			exact := e.pi[i]
			if bits(l.gathered[i]) != bits(exact) {
				n.deferred++
				if bits(l.pi[i]) == bits(exact) {
					n.resolved++
				}
			}
			if bits(l.pi[i]) != bits(exact) && !(exact <= l.pi[i] && l.pi[i] <= -1) {
				t.Fatalf("mediation %d candidate %d: PI %v is neither the exact %v nor a bound ≤ −1 of it", k, i, l.pi[i], exact)
			}
		}
		n.candidates += len(l.pq)
		for j := range l.selected {
			if bits(l.scores[j]) != bits(e.scores[j]) {
				t.Fatalf("mediation %d: selected p%d scores %v, oracle %v", k, l.selected[j], l.scores[j], e.scores[j])
			}
		}
	}
	return n
}

// samePopulations compares everything the mediations wrote: every byte of
// every public satisfaction window, what every private one reads, the
// queues, and who is still registered.
func samePopulations(t *testing.T, lazy, eager *model.Population) {
	t.Helper()
	for i, l := range lazy.Providers {
		e := eager.Providers[i]
		if !sameTracker(l.Public, e.Public) || !sameReads(l.Private, e.Private) {
			t.Fatalf("provider %d: satisfaction windows differ from the oracle's", i)
		}
		if l.BusyUntil != e.BusyUntil || l.QueriesPerformed != e.QueriesPerformed || l.Alive != e.Alive ||
			l.SmoothSat != e.SmoothSat || l.SmoothUt != e.SmoothUt {
			t.Fatalf("provider %d: queue or self-assessment differs from the oracle's", i)
		}
	}
	for i, l := range lazy.Consumers {
		if !reflect.DeepEqual(l.Tracker, eager.Consumers[i].Tracker) {
			t.Fatalf("consumer %d: satisfaction window differs from the oracle's", i)
		}
	}
}

// sameTracker is reflect.DeepEqual for a provider tracker, reading only its
// own k words of the cohort block its ring spans: DeepEqual would read the
// whole rest of the block for every tracker of it, O(|P|²·k) per
// population, and the loop over every provider still reads every word.
func sameTracker(a, b *satisfaction.ProviderTracker) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		switch fa.Kind() {
		case reflect.Int:
			if fa.Int() != fb.Int() {
				return false
			}
		case reflect.Float64:
			if fa.Float() != fb.Float() {
				return false
			}
		case reflect.Struct: // an exact sum
			for j := 0; j < fa.NumField(); j++ {
				if fa.Field(j).Uint() != fb.Field(j).Uint() {
					return false
				}
			}
		case reflect.Pointer: // a view's stream membership: a public window has none
			if !fa.IsNil() || !fb.IsNil() {
				return false
			}
		case reflect.Slice: // ring: slot s is ring[s*stride]
			stride := int(va.FieldByName("stride").Int())
			if fa.Len() != fb.Len() {
				return false
			}
			for s := 0; s < fa.Len(); s += stride {
				if fa.Index(s).Uint() != fb.Index(s).Uint() {
					return false
				}
			}
		default:
			panic("sameTracker: " + fa.Kind().String())
		}
	}
	return true
}

// sameReads compares two provider trackers by everything they answer:
// Definitions 4 and 5 by their bits, and the proposed and performed counts.
func sameReads(a, b *satisfaction.ProviderTracker) bool {
	return math.Float64bits(a.Adequation()) == math.Float64bits(b.Adequation()) &&
		math.Float64bits(a.Satisfaction()) == math.Float64bits(b.Satisfaction()) &&
		a.Proposed() == b.Proposed() && a.Performed() == b.Performed()
}

// lazyStrategies are the two methods that rank on PI. That a strategy
// reading none resolves none is internal/mediator's
// TestEngineEqualsReference's, for every strategy and shape.
var lazyStrategies = []struct {
	name  string
	build func() allocator.Allocator
}{
	{"SQLB", func() allocator.Allocator { return allocator.NewSQLB() }},
	{"SQLB-econ", func() allocator.Allocator { return allocator.NewSQLBEconomic() }},
}

// lazyPopulations are the three shapes: the paper's population, specialists
// over 128 classes with churn on the match index, and ε = 0.3, where
// negative-branch intentions stay above −1 and cannot be deferred. Windows
// are short enough to wrap within a run.
var lazyPopulations = []struct {
	name  string
	cfg   func() model.Config
	churn bool
}{
	{"paper", func() model.Config { return smallWindows(model.DefaultConfig().Scale(0.15)) }, false},
	{"specialists", func() model.Config {
		cfg := model.DefaultConfig().WithClasses(128)
		cfg.Consumers, cfg.Providers = 12, 256
		cfg.CapabilitySelectivity = 0.03 // four classes each, |Pq| ≈ 8
		return smallWindows(cfg)
	}, true},
	{"epsilon0.3", func() model.Config {
		cfg := model.DefaultConfig().Scale(0.15)
		cfg.Epsilon = 0.3
		return smallWindows(cfg)
	}, false},
}

func smallWindows(cfg model.Config) model.Config {
	cfg.ConsumerK, cfg.ProviderK = 20, 50
	return cfg
}

// engineRun drives the comparison through the simulator's event loop over
// span × 16 time units: 100 % offered load so that most providers are
// unwilling most of the time, smoothing rounds that move δs off its initial
// 0.5, and, when asked, outages and rejoins on the index.
func engineRun(t *testing.T, span int, cfg model.Config, churn bool, strategy *traced) *model.Population {
	t.Helper()
	opts := Options{
		Config: cfg, Strategy: strategy, Workload: workload.Constant(1), Duration: 16 * float64(span), Seed: 77,
		SmoothingAlpha: 0.3, SmoothingInterval: 2,
	}
	if churn {
		opts.Scenario = &scenario.Scenario{Name: "churn", Waves: []scenario.Wave{
			{Time: 4, Kind: scenario.WaveOutage, Fraction: 0.2},
			{Time: 8, Kind: scenario.WaveRejoin, Fraction: 1},
			{Time: 12, Kind: scenario.WaveOutage, Fraction: 0.1},
		}}
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res := eng.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	return eng.pop
}

// TestLazyIntentionsEqualResolveEverything is the differential test on the
// event loop: two strategies × three populations, one engine run each at
// q.n ∈ {1, 4, |Pq|}, since the generator fixes q.n per run. "engine/k" runs
// the engine for k × 16 time units; the long run at q.n = 4 carries the
// comparison through more smoothing rounds and churn aftermath. The direct
// entrances (Allocate, Mediate, MediateBatch) are held to the reference
// mediator by internal/mediator's TestMediationEqualsReference.
func TestLazyIntentionsEqualResolveEverything(t *testing.T) {
	type run struct {
		entrance string
		span     int
		qn       int
	}
	runs := []run{{"engine/1", 1, 1}, {"engine/1", 1, 4}, {"engine/1", 1, 1 << 20}, {"engine/4", 4, 4}}
	var sqlb lazyCounts
	for _, st := range lazyStrategies {
		for _, pp := range lazyPopulations {
			for _, r := range runs {
				cfg := pp.cfg()
				cfg.QueryN = r.qn
				lazy, eager := &traced{inner: st.build()}, &traced{inner: st.build(), eager: true}
				popL, popE := engineRun(t, r.span, cfg, pp.churn, lazy), engineRun(t, r.span, cfg, pp.churn, eager)
				name := fmt.Sprintf("%s/%s/%s/n=%d", st.name, pp.name, r.entrance, r.qn)
				if len(lazy.log) == 0 {
					t.Fatalf("%s: nothing mediated", name)
				}
				t.Run(name, func(t *testing.T) {
					if eager.stale != 0 {
						t.Errorf("%d resolved intentions are not IntentionAt's at the current load", eager.stale)
					}
					n := compareTraces(t, lazy.log, eager.log)
					samePopulations(t, popL, popE)
					if st.name == "SQLB" && pp.name != "epsilon0.3" {
						sqlb.add(n)
					}
				})
			}
		}
	}
	// The comparison is vacuous unless the mechanism ran: most of SQLB's
	// candidates deferred, some of them asked for exactly.
	if sqlb.deferred*2 < sqlb.candidates || sqlb.resolved == 0 || sqlb.resolved == sqlb.deferred {
		t.Errorf("SQLB over the ε = 1 populations: %d candidates, %d deferred, %d resolved", sqlb.candidates, sqlb.deferred, sqlb.resolved)
	}
}
