// Command benchmark is the repository's benchmark: it drives the two front
// doors users have — the mediation service and the discrete-event
// simulator — on the four workloads of BENCHMARK.json, prints every metric
// as `workload metric value unit`, checks the outputs, and writes one JSON
// report. See README.md for the glossary.
//
// Usage:
//
//	benchmark [-seed n] [-seconds s] [-out report.json]
//	    every workload, untraced then traced, each in its own child process
//	benchmark -workload name [-seed n] [-seconds s] [-trace 0|1] [-out file] [-trace-out spans.jsonl]
//	    one workload in one mode, in this process; the last line of output
//	    is the one-object summary the driver reads
//	benchmark -compare a.json b.json
//	    judge report b against report a by BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input; the README reserves a second one for confirming claims")
		seconds  = flag.Float64("seconds", 0, "measuring time of one run (default: BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "0 measures the end-to-end metrics untraced, 1 the per-layer metrics traced")
		smoke    = flag.Bool("smoke", false, "shrink every workload to the self-test's scale")
		out      = flag.String("out", "", "write the JSON report here (default for all workloads: .bench_build/report.json)")
		traceOut = flag.String("trace-out", "", "with -workload and -trace 1: write the span buffer here as JSONL after the run")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files, got %d", flag.NArg()))
		}
		ok, err := compareReports(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		r, err := runWorkload(runOptions{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke, traceOut: *traceOut}, spec)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, r); err != nil {
				fatal(err)
			}
		}
		if err := r.print(os.Stdout); err != nil {
			fatal(err)
		}
		if !r.Correct {
			os.Exit(1)
		}
	default:
		if *out == "" {
			*out = filepath.Join(".bench_build", "report.json")
		}
		ok, err := runAll(spec, *seed, *seconds, *smoke, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report is the file one complete set of runs leaves behind: every
// workload's untraced and traced result.
type report struct {
	Seed      uint64                        `json:"seed"`
	Seconds   float64                       `json:"seconds"`
	Env       environment                   `json:"env"`
	Workloads map[string]map[string]*result `json:"workloads"`
}

// Keys of a workload's two results in the report.
const (
	keyEndToEnd = "end_to_end"
	keyPerLayer = "per_layer"
)

// runAll runs every workload, untraced then traced, each run in its own
// child process so that resident-set size and collector state do not leak
// from one into the next, and gathers the children's results into the
// report at out.
func runAll(spec *benchSpec, seed uint64, seconds float64, smoke bool, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return false, err
	}
	rep := report{Seed: seed, Seconds: seconds, Env: readEnvironment(), Workloads: map[string]map[string]*result{}}
	ok := true
	for _, w := range spec.Workloads {
		rep.Workloads[w.Name] = map[string]*result{}
		for trace, key := range []string{keyEndToEnd, keyPerLayer} {
			part := fmt.Sprintf("%s.%s.%s.json", out, w.Name, key)
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", part,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			data, err := os.ReadFile(part)
			if err != nil {
				return false, fmt.Errorf("%s %s: %v (child: %v)", w.Name, key, err, runErr)
			}
			os.Remove(part)
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return false, fmt.Errorf("%s %s: %w", w.Name, key, err)
			}
			rep.Workloads[w.Name][key] = &r
			ok = ok && runErr == nil && r.Correct
		}
	}
	return ok, writeJSON(out, rep)
}
