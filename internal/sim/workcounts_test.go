package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/mediator"
	"sqlb/internal/model"
	"sqlb/internal/scenario"
	"sqlb/internal/workload"
)

var updateCounts = flag.Bool("update", false, "re-record testdata/work_counts.json")

// workCounts is what a run's mediations cost, counted rather than timed: a
// count moves exactly when the algorithm's work moves, whatever the host.
// The warm counts cover the second half of the run's mediations.
type workCounts struct {
	Mediations  int `json:"mediations"`
	Candidates  int `json:"candidates"`
	Deferred    int `json:"deferred"`
	Resolved    int `json:"resolved"`
	Scores      int `json:"scores"`
	Survivors   int `json:"bound_survivors"`
	Definition7 int `json:"definition7"`
	WarmDef7    int `json:"definition7_warm"`
	// PrivateWrites is the words result notifications wrote into
	// private-window rings over the whole run; PublicWrites the words they
	// wrote into public-window rings plus the explicit values public
	// windows held as views of the population's stream.
	PrivateWrites int `json:"private_writes"`
	PublicWrites  int `json:"public_writes"`
}

// def7Probe is lazyProbe plus the mediator's count of Definition 7
// evaluations, read per mediation: by the time the strategy runs, the
// mediation has gathered every intention it will use.
type def7Probe struct {
	lazyProbe
	med       *mediator.Mediator
	last      uint64
	def7      []int // per mediation
	survivors int
	t         *testing.T
}

// definition7Evaluations reads the mediator's unexported count of
// Definition 7 evaluations: a plain integer it adds |Pq| to when it
// computes a row of consumer intentions, so the default build pays one add
// per row and exports nothing; reflection reads it without a test-only
// entrance.
func definition7Evaluations(med *mediator.Mediator) uint64 {
	return reflect.ValueOf(med).Elem().FieldByName("rows").FieldByName("evals").Uint()
}

// windowWrites reads, as definition7Evaluations reads its count, the
// window words written on each side. Private: the mediator's unexported
// count of ring words its notifications wrote, plus the population
// stream's count of words private windows wrote on leaving it. Public: the
// same two, plus the stream's explicit shown values.
func windowWrites(med *mediator.Mediator, pop *model.Population) (private, public uint64) {
	m := reflect.ValueOf(med).Elem()
	private, public = m.FieldByName("privateWrites").Uint(), m.FieldByName("publicWrites").Uint()
	if s := pop.Stream(); s != nil {
		private += reflect.ValueOf(s).Elem().FieldByName("materialized").Uint()
		public += reflect.ValueOf(s).Elem().FieldByName("shownWords").Uint()
	}
	return private, public
}

func (p *def7Probe) Allocate(req *allocator.Request) []int {
	n := definition7Evaluations(p.med)
	p.def7 = append(p.def7, int(n-p.last))
	p.last = n
	selected := p.lazyProbe.Allocate(req)
	p.survivors += boundSurvivors(p.t, req, selected)
	return selected
}

// boundSurvivors counts the candidates whose first-level score bound — the
// one core.RankTop stores for every candidate it ranks, read off the
// Scratch — is not below the exact score of the last one selected: the
// candidates that bound could not rule out. The exact scores a mediation
// costs hide a loosened first level, because the tighter second one
// catches what it lets through; this count does not.
//
// RankTop's last call ranked the positive branch alone where Definition
// 9's sign split decided the ranking (core.RankSplit), and every candidate
// otherwise; the probe takes the same decision from what the request
// shows, and then holds the stored bounds to that many candidates.
func boundSurvivors(t *testing.T, req *allocator.Request, selected []int) int {
	n := len(selected)
	if n == 0 {
		return 0
	}
	score := func(i int) float64 {
		return core.Score(req.PI[i], req.CI[i], core.Omega(req.ConsumerSat, req.ProviderSatisfaction(i)), core.DefaultEpsilon)
	}
	ranked, ceiling := len(req.Pq), math.Inf(-1)
	for i := range req.Pq {
		ceiling = max(ceiling, req.PI[i], req.CI[i])
	}
	if 1-ceiling+core.DefaultEpsilon >= 0 {
		positive, above := 0, 0
		for i := range req.Pq {
			if req.PI[i] > 0 && req.CI[i] > 0 {
				positive++
				if score(i) > 0 {
					above++
				}
			}
		}
		if above >= n {
			ranked = positive
		}
	}
	if n >= ranked {
		return 0 // RankTop's full-ranking path stores no bounds
	}
	bounds := reflect.ValueOf(req.Scratch).Elem().FieldByName("bounds")
	if bounds.Len() != ranked {
		t.Fatalf("RankTop stored %d bounds, the probe expected %d", bounds.Len(), ranked)
	}
	worst, survivors := score(selected[n-1]), 0
	for i := 0; i < bounds.Len(); i++ {
		if bounds.Index(i).Float() >= worst {
			survivors++
		}
	}
	return survivors
}

func (p *def7Probe) counts() workCounts {
	c := workCounts{Mediations: p.mediations, Candidates: p.candidates, Deferred: p.deferred,
		Resolved: p.resolved, Scores: p.scored, Survivors: p.survivors}
	for i, n := range p.def7 {
		c.Definition7 += n
		if 2*i >= len(p.def7) {
			c.WarmDef7 += n
		}
	}
	return c
}

// TestWorkCounts holds the work of the mediations of three short runs —
// BenchmarkLazyIntentionCounts' paper, narrow and overload shapes — to the
// counts recorded in testdata/work_counts.json, exactly: candidates
// gathered, Definition 8 evaluations deferred as bounds and resolved,
// exact Definition 9 scores, first-level bound survivors, Definition 7
// evaluations, and the window words written on each side. A change that
// moves a count says so and re-records the file with
//
//	go test ./internal/sim -run TestWorkCounts -update
func TestWorkCounts(t *testing.T) {
	narrow := model.DefaultConfig().WithClasses(128)
	narrow.Consumers, narrow.Providers, narrow.ProviderK = 1000, 2000, 100
	narrow.CapabilitySelectivity = 1.0 / 128
	staged, ok := scenario.Preset("staged-churn")
	if !ok {
		t.Fatal("no staged-churn preset")
	}
	got := map[string]workCounts{}
	for _, shape := range []struct {
		name string
		load float64
		opts Options
	}{
		{"paper", 0.8, Options{Config: model.DefaultConfig(), Duration: 40, Seed: 1}},
		{"narrow", 0.8, Options{Config: narrow, Duration: 40, Seed: 1, Scenario: staged}},
		{"overload", 1.3, Options{Config: model.DefaultConfig(), Duration: 30, Seed: 1}},
	} {
		probe := &def7Probe{lazyProbe: lazyProbe{Allocator: allocator.NewSQLB()}, t: t}
		opts := shape.opts
		opts.Strategy, opts.Workload, opts.SampleInterval = probe, workload.Constant(shape.load), opts.Duration/50
		eng, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		probe.med = eng.med
		if res := eng.Run(); res.Err != nil {
			t.Fatal(res.Err)
		}
		c := probe.counts()
		private, public := windowWrites(eng.med, eng.Population())
		c.PrivateWrites, c.PublicWrites = int(private), int(public)
		got[shape.name] = c
	}

	path := filepath.Join("testdata", "work_counts.json")
	if *updateCounts {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want map[string]workCounts
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name := range got {
			if got[name] != want[name] {
				t.Errorf("%s: counts %+v, recorded %+v", name, got[name], want[name])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%d shapes counted, %d recorded", len(got), len(want))
		}
	}
}

// lazyCounts is what a run says about the deferral of Definition 8: the
// candidates gathered, the slots left as bounds, and those asked for exactly.
type lazyCounts struct{ candidates, deferred, resolved int }

// lazyProbe counts, for every candidate of every mediation, what the
// gathering loop deferred and what the strategy then resolved. It reads
// only what any strategy may: a slot was deferred when it does not hold
// Definition 8's bits (IntentionAt at the current load) on entry,
// resolved when it does on return. It also counts the exact Definition 9
// scores core.RankTop computed: it poisons the score vector (Scratch.F2)
// before the call, and a slot that no longer holds the poison was scored.
type lazyProbe struct {
	allocator.Allocator
	exact []float64
	lazyCounts
	mediations, scored int
}

// scorePoison is a NaN payload no Definition 9 evaluation produces.
var scorePoison = math.Float64frombits(0x7ff8_dead_beef_0001)

func (s *lazyProbe) Allocate(req *allocator.Request) []int {
	if req.Scratch == nil {
		req.Scratch = new(core.Scratch)
	}
	scores := req.Scratch.F2(len(req.Pq))
	for i := range scores {
		scores[i] = scorePoison
	}
	s.exact = s.exact[:0]
	for i, p := range req.Pq {
		s.exact = append(s.exact, p.IntentionAt(req.Query.Class, p.OperationalLoad(req.Now)))
		if math.Float64bits(req.PI[i]) != math.Float64bits(s.exact[i]) {
			s.deferred++
			s.exact[i] = math.NaN() // equals nothing: marks the slot
		}
	}
	s.candidates += len(req.Pq)
	s.mediations++
	selected := s.Allocator.Allocate(req)
	for _, v := range scores {
		if math.Float64bits(v) != math.Float64bits(scorePoison) {
			s.scored++
		}
	}
	for i, p := range req.Pq {
		if s.exact[i] != s.exact[i] && math.Float64bits(req.PI[i]) == math.Float64bits(p.IntentionAt(req.Query.Class, p.OperationalLoad(req.Now))) {
			s.resolved++
		}
	}
	return selected
}

// BenchmarkLazyIntentionCounts is the counting probe EXPERIMENTS.md §13
// and §15 quote: the runs of `sqlb-sim -scale 1 -duration 300 -workload
// 0.8 -seed 1`, of the benchmark's sim-narrow shape and of `sqlb-sim
// -scale 1 -duration 150 -workload 1.3 -seed 1`, reporting how many
// Definition 8 evaluations stood as bounds, how many of those were asked
// for exactly, and how many exact Definition 9 scores a mediation cost.
//
//	go test -run '^$' -bench LazyIntentionCounts -benchtime 1x ./internal/sim
func BenchmarkLazyIntentionCounts(b *testing.B) {
	narrow := model.DefaultConfig().WithClasses(128)
	narrow.Consumers, narrow.Providers, narrow.ProviderK = 1000, 2000, 100
	narrow.CapabilitySelectivity = 1.0 / 128
	staged, _ := scenario.Preset("staged-churn")
	for _, shape := range []struct {
		name string
		load float64
		opts Options
	}{
		{"paper", 0.8, Options{Config: model.DefaultConfig(), Duration: 300, Seed: 1}},
		{"narrow", 0.8, Options{Config: narrow, Duration: 600, Seed: 1, Scenario: staged}},
		{"overload", 1.3, Options{Config: model.DefaultConfig(), Duration: 150, Seed: 1}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				probe := &lazyProbe{Allocator: allocator.NewSQLB()}
				opts := shape.opts
				opts.Strategy, opts.Workload, opts.SampleInterval = probe, workload.Constant(shape.load), opts.Duration/50
				eng, err := New(opts)
				if err != nil {
					b.Fatal(err)
				}
				if res := eng.Run(); res.Err != nil {
					b.Fatal(res.Err)
				}
				b.ReportMetric(float64(probe.candidates), "evaluations")
				b.ReportMetric(float64(probe.deferred), "deferred")
				b.ReportMetric(float64(probe.resolved), "resolved")
				b.ReportMetric(float64(probe.scored)/float64(probe.mediations), "scores/mediation")
			}
		})
	}
}
