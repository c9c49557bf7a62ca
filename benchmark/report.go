package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value: the median of its repetitions, with the
// raw repetitions kept so a reader can judge the spread.
type metric struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Reps  []float64 `json:"reps,omitempty"`
}

// check is one output check; a failed check fails the command.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// timedRun records one timed run the harness made, kept or not, so no run
// is silently dropped from the report.
type timedRun struct {
	Phase  string  `json:"phase"`
	Rep    int     `json:"rep"`
	WallS  float64 `json:"wall_s"`
	Ops    int     `json:"ops"`
	Traced bool    `json:"traced,omitempty"`
	// P99Ms is the latency tail of an open-loop run (recorded, not gated)
	// and LateMaxMs its worst pacer lateness, so a stalled VM is visible
	// next to the latency it inflated.
	P99Ms     float64 `json:"p99_ms,omitempty"`
	LateMaxMs float64 `json:"late_max_ms,omitempty"`
}

// rung is one point of the serving saturation curve.
type rung struct {
	QPS         float64 `json:"qps"`
	AchievedMPS float64 `json:"achieved_mps"`
	P50Ms       float64 `json:"p50_ms"`
	P90Ms       float64 `json:"p90_ms"`
	P99Ms       float64 `json:"p99_ms"`
	FailShare   float64 `json:"fail_share"`
	LateP99Ms   float64 `json:"late_p99_ms"`
	Samples     int     `json:"samples"`
}

// environment is what a reader needs to judge whether two reports are
// comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "unknown",
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded only where git can name it.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// result is the outcome of one workload in one mode (traced or not).
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds harness-side readings that are not named metrics of the
	// mode (the warm-up wall of an untraced run, span totals, ...).
	Extra  map[string]float64 `json:"extra,omitempty"`
	Curve  []rung             `json:"curve,omitempty"`
	Checks []check            `json:"checks"`
	Runs   []timedRun         `json:"runs"`

	spec map[string]metricSpec
}

func newResult(o runOptions, spec *benchSpec) *result {
	r := &result{
		Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Env:     readEnvironment(),
		Metrics: map[string]metric{},
		Extra:   map[string]float64{},
		spec:    map[string]metricSpec{},
	}
	for _, m := range spec.metrics(o.trace) {
		r.spec[m.Name] = m
	}
	return r
}

// set reports a metric as the median of its repetitions. Reporting a name
// BENCHMARK.json does not list for this mode, or a name twice, is a bug in
// the harness and fails the run through the checks.
func (r *result) set(name string, reps ...float64) {
	m, ok := r.spec[name]
	if _, dup := r.Metrics[name]; !ok || dup || len(reps) == 0 {
		r.check("metric "+name, false, "listed=%v duplicate=%v reps=%d", ok, dup, len(reps))
		return
	}
	lo, hi := minMax(reps)
	r.Metrics[name] = metric{Value: median(reps), Unit: m.Unit, Min: lo, Max: hi, Reps: reps}
}

// notMeasured reports 0 for per-layer metrics of layers that are not on
// this workload's path (the simulator layers on a serving workload and
// the reverse); the README's table says which are measured where.
func (r *result) notMeasured(names ...string) {
	for _, name := range names {
		r.set(name, 0)
	}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) run(phase string, rep int, wallS float64, ops int, traced bool) *timedRun {
	r.Runs = append(r.Runs, timedRun{Phase: phase, Rep: rep, WallS: wallS, Ops: ops, Traced: traced})
	return &r.Runs[len(r.Runs)-1]
}

// finish closes the result: every metric of the mode must have been
// reported, each finite, and every check must have passed.
func (r *result) finish() {
	for name := range r.spec {
		m, ok := r.Metrics[name]
		if !ok {
			r.check("metric "+name, false, "not reported")
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check("metric "+name, false, "value %v", m.Value)
		}
	}
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// print writes every metric as `workload metric value unit`, the failed
// checks, and — as the last line — the one-object summary the driver reads.
func (r *result) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(bw, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if r.Digest != "" {
		fmt.Fprintf(bw, "%s digest %s\n", r.Workload, r.Digest)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(bw, "%s CHECK FAILED %s: %s\n", r.Workload, c.Name, c.Detail)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, m := range r.Metrics {
		summary.Metrics[name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile cuts the q-quantile from raw sorted samples, interpolating
// between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func minMax(values []float64) (lo, hi float64) {
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}
