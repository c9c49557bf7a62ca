package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sqlb/internal/allocator"
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
}

// definition7Evaluations reads the mediator's unexported count of
// Definition 7 evaluations: a plain integer it adds |Pq| to when it
// computes a row of consumer intentions, so the default build pays one add
// per row and exports nothing; reflection reads it without a test-only
// entrance.
func definition7Evaluations(med *mediator.Mediator) uint64 {
	return reflect.ValueOf(med).Elem().FieldByName("rows").FieldByName("evals").Uint()
}

func (p *def7Probe) Allocate(req *allocator.Request) []int {
	n := definition7Evaluations(p.med)
	p.def7 = append(p.def7, int(n-p.last))
	p.last = n
	selected := p.lazyProbe.Allocate(req)
	p.survivors += boundSurvivors(req, selected)
	return selected
}

// boundSurvivors counts the candidates whose first-level score bound — the
// one core.RankTop stores for every candidate, read off the Scratch — is not
// below the exact score of the last one selected: the candidates that bound
// could not rule out. The exact scores a mediation costs hide a loosened
// first level, because the tighter second one catches what it lets through;
// this count does not.
func boundSurvivors(req *allocator.Request, selected []int) int {
	if len(selected) == 0 || len(selected) >= len(req.Pq) {
		return 0 // RankTop's full-ranking path stores no bounds
	}
	bounds := reflect.ValueOf(req.Scratch).Elem().FieldByName("bounds")
	worst := req.Scratch.F2(len(req.Pq))[selected[len(selected)-1]]
	n := 0
	for i := 0; i < bounds.Len(); i++ {
		if bounds.Index(i).Float() >= worst {
			n++
		}
	}
	return n
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
// exact Definition 9 scores, and Definition 7 evaluations. A change that
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
		probe := &def7Probe{lazyProbe: lazyProbe{Allocator: allocator.NewSQLB()}}
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
		got[shape.name] = probe.counts()
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
