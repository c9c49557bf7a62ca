package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"sqlb"
)

// metricSpec is one metric entry of BENCHMARK.json. The file is the single
// source of the metric names, units, directions, and regression bounds:
// the harness refuses to report a name the file does not list, and
// -compare reads direction and bound from it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent:
// run.sh starts the binary at the repository root, `go run -C benchmark .`
// and `go test` start it inside benchmark/.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", firstErr)
}

// metrics returns the metric list a run of the given mode must report:
// end-to-end metrics untraced, per-layer metrics traced.
func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// workload is one named input set. A workload drives exactly one of the
// two front doors: the mediation service (batch > 0) or the discrete-event
// simulator (duration > 0). Every size and rate below is a constant of the
// benchmark, never derived from the commit under test.
type workload struct {
	name   string
	config func() sqlb.Config

	// Serving front door. batch is the queries per MediateBatch call; 1
	// selects the per-query Mediate path instead. rungs are the open-loop
	// rates of the saturation curve in qps, ref the one whose median
	// latency is gated, driverQPS the overload offered to serving.Driver
	// (4x the capacity measured when the benchmark was defined).
	batch     int
	rungs     []float64
	ref       float64
	driverQPS float64
	// warm is the count of mediations that bring the trackers and the
	// utilization windows to their stationary state before anything is
	// timed; the serve digest and quality statistics are cut from it.
	warm int

	// Simulator front door: simulated horizon, warm-up horizon, and the
	// timeline's sample interval in sim-seconds, and the scenario preset
	// overlaying churn ("" = none).
	duration       float64
	warmDuration   float64
	sampleInterval float64
	scenario       string

	// replay is how many queries the staged replay and its twin take.
	replay int
}

// load is the paper's 80% reference workload (Table 3, Figures 5-6): the
// simulators run at it, and the serving workloads' virtual mediation clock
// keeps provider load there however fast mediations run.
const load = 0.8

func (w workload) serving() bool { return w.batch > 0 }

func paperConfig() sqlb.Config { return sqlb.DefaultConfig() }

// narrowConfig is the many-classes population: every provider advertises
// one of 128 classes, so |Pq| is about 15.6 and per-candidate kernels stop
// dominating a mediation. With fewer providers per class, an unlucky seed
// leaves a class with nobody alive once the churn scenario's three outage
// waves have passed, and its queries are dropped; at 15.6 that happens on
// about one seed in seven hundred.
func narrowConfig() sqlb.Config {
	cfg := sqlb.DefaultConfig().WithClasses(128)
	cfg.Consumers, cfg.Providers, cfg.ProviderK = 1000, 2000, 100
	cfg.CapabilitySelectivity = 1.0 / 128
	return cfg
}

var workloads = []workload{
	{
		name: "serve-paper", config: paperConfig,
		batch: 32, rungs: []float64{2000, 4000, 8000, 12000, 20000}, ref: 4000, driverQPS: 50000,
		warm: 20000, replay: 40000,
	},
	{
		name: "serve-single", config: paperConfig,
		batch: 1, rungs: []float64{100, 250, 400, 700, 1100}, ref: 250, driverQPS: 3000,
		warm: 20000, replay: 40000,
	},
	{
		name: "sim-paper", config: paperConfig,
		duration: 300, warmDuration: 100, sampleInterval: 10, replay: 40000,
	},
	{
		name: "sim-narrow", config: narrowConfig,
		duration: 600, warmDuration: 100, sampleInterval: 10, scenario: "staged-churn", replay: 200000,
	},
}

// smoke shrinks a workload to the self-test's scale: the same code paths
// over a population and horizon small enough for all four workloads, both
// modes, to finish in seconds.
func (w workload) smoke() workload {
	full := w.config
	w.config = func() sqlb.Config {
		cfg := full()
		if len(cfg.QueryClasses) > 2 {
			cfg = cfg.WithClasses(16)
			cfg.CapabilitySelectivity = 1.0 / 16
		}
		cfg.Consumers /= 4
		cfg.Providers /= 4
		return cfg
	}
	w.warm /= 20
	w.replay /= 20
	w.duration /= 10
	w.warmDuration /= 10
	w.sampleInterval /= 10
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, errors.New("unknown workload " + name)
}
