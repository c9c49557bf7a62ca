package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecContract pins BENCHMARK.json to the limits the driver enforces
// before a single run, and to the workload table of this package.
func TestSpecContract(t *testing.T) {
	spec := testSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	var setup *metricSpec
	for i, m := range spec.EndToEnd {
		unique(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// smokeResults runs every workload in both modes at smoke scale, once per
// test binary.
var smokeResults = map[string]map[string]*result{}

func smoke(t *testing.T, workload, key string) *result {
	t.Helper()
	if r := smokeResults[workload][key]; r != nil {
		return r
	}
	w, err := findWorkload(workload)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(runOptions{w: w, seed: 7, seconds: 0.4, trace: key == keyPerLayer, smoke: true}, testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if smokeResults[workload] == nil {
		smokeResults[workload] = map[string]*result{}
	}
	smokeResults[workload][key] = r
	return r
}

// TestSmokeReportsEveryMetric runs all four workloads in both modes and
// holds the output to BENCHMARK.json: exactly its metric names, each once,
// finite, with its unit, every output check passing, and the last line of
// output in the shape the driver reads.
func TestSmokeReportsEveryMetric(t *testing.T) {
	spec := testSpec(t)
	for _, w := range workloads {
		for _, key := range []string{keyEndToEnd, keyPerLayer} {
			t.Run(w.name+"/"+key, func(t *testing.T) {
				r := smoke(t, w.name, key)
				for _, c := range r.Checks {
					if !c.OK {
						t.Errorf("check %q failed: %s", c.Name, c.Detail)
					}
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if r.Digest == "" {
					t.Error("no digest")
				}

				var out bytes.Buffer
				if err := r.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var summary struct {
					Correct   *bool   `json:"correct"`
					Attempted *uint64 `json:"attempted"`
					Failed    *uint64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&summary); err != nil {
					t.Fatalf("last line is not the driver's object: %v\n%s", err, lines[len(lines)-1])
				}
				if summary.Correct == nil || summary.Attempted == nil || summary.Failed == nil {
					t.Fatalf("last line lacks a key: %s", lines[len(lines)-1])
				}
				want := spec.metrics(key == keyPerLayer)
				if len(summary.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(summary.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := summary.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("%s not printed", m.Name)
					case got.Unit != m.Unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
						t.Errorf("%s = %v %q, want a finite value in %q", m.Name, *got.Value, got.Unit, m.Unit)
					case key == keyEndToEnd && *got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, *got.Value)
					}
					if !strings.Contains(out.String(), w.name+" "+m.Name+" ") {
						t.Errorf("no `workload metric value unit` line for %s", m.Name)
					}
				}
			})
		}
	}
}

// TestSmokeLayerTable holds the traced run to what the workloads are there
// to show: the candidate-set sizes, and the simulator-only and
// serving-only layers measured where they are on the path.
func TestSmokeLayerTable(t *testing.T) {
	value := func(workload, metric string) float64 {
		return smoke(t, workload, keyPerLayer).Metrics[metric].Value
	}
	if pq := value("serve-paper", "matchmaking.pq_mean"); pq != 100 {
		t.Errorf("serve-paper |Pq| = %v, want every one of the 100 smoke providers", pq)
	}
	if pq := value("sim-narrow", "matchmaking.pq_mean"); pq < 25 || pq > 40 {
		t.Errorf("sim-narrow |Pq| = %v, want about 500/16", pq)
	}
	if got := value("sim-narrow", "scenario.churn_events"); got == 0 {
		t.Error("sim-narrow saw no churn")
	}
	if got := value("sim-paper", "scenario.churn_events"); got != 0 {
		t.Errorf("sim-paper saw %v churn events", got)
	}
	for _, m := range []string{"sim.queries_per_run", "timeline.rows", "sim.new_s"} {
		if value("sim-paper", m) <= 0 || value("serve-paper", m) != 0 {
			t.Errorf("%s must be measured on sim-paper and 0 on serve-paper", m)
		}
	}
	for _, m := range []string{"mediator.single_us", "mediator.batch_us_per_query", "serving.driver_mps", "harness.knee_qps"} {
		if value("serve-single", m) <= 0 || value("sim-narrow", m) != 0 {
			t.Errorf("%s must be measured on serve-single and 0 on sim-narrow", m)
		}
	}
	if allocs := value("serve-single", "mediator.allocs_per_query"); allocs < 100 {
		t.Errorf("Mediate's fan-out allocates %v per query, expected hundreds", allocs)
	}
	if curve := smoke(t, "serve-paper", keyPerLayer).Curve; len(curve) != 5 {
		t.Errorf("saturation curve has %d rungs", len(curve))
	}
}

// TestSameSeedSameBytes reruns two workloads: the digest and the
// simulated statistics repeat exactly for a seed and move with it.
func TestSameSeedSameBytes(t *testing.T) {
	spec := testSpec(t)
	for _, name := range []string{"serve-paper", "sim-narrow"} {
		first := smoke(t, name, keyEndToEnd)
		w, _ := findWorkload(name)
		again, err := runWorkload(runOptions{w: w, seed: 7, seconds: 0.2, smoke: true}, spec)
		if err != nil {
			t.Fatal(err)
		}
		other, err := runWorkload(runOptions{w: w, seed: 8, seconds: 0.2, smoke: true}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if again.Digest != first.Digest || other.Digest == first.Digest {
			t.Errorf("%s: digest must repeat for a seed and differ across seeds", name)
		}
		for _, m := range []string{"sim_resp_mean_s", "sim_cons_allocsat", "sim_prov_sat"} {
			if again.Metrics[m].Value != first.Metrics[m].Value {
				t.Errorf("%s: %s is %v then %v for one seed", name, m, first.Metrics[m].Value, again.Metrics[m].Value)
			}
		}
	}
}

func TestTraceOut(t *testing.T) {
	w, _ := findWorkload("sim-paper")
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if _, err := runWorkload(runOptions{w: w, seed: 7, seconds: 0.2, trace: true, smoke: true, traceOut: path}, testSpec(t)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s struct {
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil || s.EndNs < s.StartNs {
			t.Fatalf("bad span %q: %v", line, err)
		}
		names[s.Name]++
	}
	for _, want := range []string{"replay.query", "allocator.allocate", "mediator.allocate", "sim.run", "insitu.allocator", "insitu.sink"} {
		if names[want] == 0 {
			t.Errorf("no %s span in the trace", want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "cap", Better: "higher", Bound: 0.10}
	m := func(value, lo, hi float64) metric { return metric{Value: value, Min: lo, Max: hi} }
	cases := []struct {
		name       string
		spec       metricSpec
		base, next metric
		want       string
	}{
		{"unchanged", lower, m(100, 99, 101), m(101, 100, 102), verdictOK},
		{"slower past the bound", lower, m(100, 99, 101), m(115, 114, 116), verdictWorse},
		{"faster", lower, m(100, 99, 101), m(80, 79, 81), verdictOK},
		{"less capacity", higher, m(100, 99, 101), m(85, 84, 86), verdictWorse},
		{"more capacity", higher, m(100, 99, 101), m(120, 119, 121), verdictOK},
		{"spread hides the answer", lower, m(100, 90, 120), m(105, 95, 125), verdictUnresolved},
		{"spread wide but every repetition slower", lower, m(100, 90, 110), m(140, 125, 160), verdictWorse},
		{"spread wide but every repetition faster", lower, m(100, 90, 120), m(70, 60, 85), verdictOK},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.spec, c.base, c.next); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareReports drives -compare on smoke reports: a report agrees
// with itself, a halved capacity is worse, and a digest that moves between
// two runs of one commit fails the comparison while one that moves with
// the commit is only reported.
func TestCompareReports(t *testing.T) {
	spec := testSpec(t)
	dir := t.TempDir()
	// write builds a report from the smoke results, pins sim-paper's
	// capacity (a smoke run's own repetitions spread too wide to judge),
	// applies edit, and saves it.
	write := func(name string, capacity float64, edit func(*report)) string {
		t.Helper()
		rep := report{Seed: 7, Seconds: 0.4, Env: environment{Commit: "abc"}, Workloads: map[string]map[string]*result{}}
		for _, w := range workloads {
			r := *smoke(t, w.name, keyEndToEnd)
			r.Metrics = map[string]metric{}
			for name, m := range smoke(t, w.name, keyEndToEnd).Metrics {
				r.Metrics[name] = m
			}
			rep.Workloads[w.name] = map[string]*result{keyEndToEnd: &r}
		}
		rep.Workloads["sim-paper"][keyEndToEnd].Metrics["capacity_mps"] =
			metric{Value: capacity, Unit: "1/s", Min: 0.99 * capacity, Max: 1.01 * capacity}
		if edit != nil {
			edit(&rep)
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	compare := func(a, b string) (bool, string) {
		t.Helper()
		var out bytes.Buffer
		ok, err := compareReports(&out, spec, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return ok, out.String()
	}

	base := write("base.json", 1000, nil)
	ok, out := compare(base, base)
	if !ok || strings.Contains(out, verdictWorse) {
		t.Errorf("a report is worse than itself:\n%s", out)
	}
	if rows := strings.Count(out, "change "); rows != len(workloads)*len(spec.EndToEnd) {
		t.Errorf("%d rows, want one per workload and end-to-end metric:\n%s", rows, out)
	}
	if ok, out := compare(base, write("halved.json", 500, nil)); ok || !strings.Contains(out, "sim-paper     capacity_mps       worse") {
		t.Errorf("halved capacity passed:\n%s", out)
	}
	moveDigest := func(rep *report) { rep.Workloads["serve-single"][keyEndToEnd].Digest = "0" }
	if ok, out := compare(base, write("moved.json", 1000, moveDigest)); ok || !strings.Contains(out, "DIFFERS") {
		t.Errorf("a digest that moved within one commit passed:\n%s", out)
	}
	otherCommit := func(rep *report) {
		rep.Env.Commit = "def"
		moveDigest(rep)
	}
	if ok, out := compare(base, write("other.json", 1000, otherCommit)); !ok || !strings.Contains(out, "allocates differently") {
		t.Errorf("a digest that moved with the commit must be reported, not failed:\n%s", out)
	}
}
