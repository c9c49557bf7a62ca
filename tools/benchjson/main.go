// Command benchjson converts `go test -bench` output on stdin into a JSON
// regression record. `make bench` pipes the benchmark suite through it to
// produce BENCH_results.json, giving future PRs a perf trajectory to diff
// against (the repeats of `-count n` collapse into one record each):
//
//	go test -run '^$' -bench ... | go run ./tools/benchjson -out BENCH_results.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line, or after collapse one benchmark's
// record: Iterations, NsPerOp and the extra metrics reported via
// b.ReportMetric (unit → value) are medians over Runs runs. Procs is the
// GOMAXPROCS the run stamped on its name.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"gomaxprocs"`
	Runs       int                `json:"runs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	NsPerOpMin float64            `json:"ns_per_op_min"`
	NsPerOpMax float64            `json:"ns_per_op_max"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole BENCH_results.json document. Serving holds an
// embedded sqlb-serve JSON report (mediations/sec + latency percentiles)
// when `-serving file` points at one.
type Report struct {
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	CPUs       int             `json:"cpus"`
	Benchmarks []Benchmark     `json:"benchmarks"`
	Serving    json.RawMessage `json:"serving,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_results.json", "output file")
	serving := flag.String("serving", "", "sqlb-serve -json report to embed under the \"serving\" key (missing file = warn, not fail)")
	flag.Parse()

	// Load the previous record (if any) before overwriting it, so the run
	// ends with a delta table against the last committed trajectory point.
	previous := loadPrevious(*out)

	report := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}

	var runs []Benchmark
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // stay transparent: the human-readable output passes through
		if b, ok := parseLine(line); ok {
			runs = append(runs, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	report.Benchmarks = collapse(runs)
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	// The serving record is optional: a bench run without a prior sqlb-serve
	// pass should still produce a valid BENCH_results.json.
	if *serving != "" {
		data, err := os.ReadFile(*serving)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: serving report skipped: %v\n", err)
		} else if !json.Valid(data) {
			fmt.Fprintf(os.Stderr, "benchjson: serving report %s skipped: not valid JSON\n", *serving)
		} else {
			report.Serving = json.RawMessage(data)
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks (%d runs) to %s\n", len(report.Benchmarks), len(runs), *out)
	printDelta(os.Stdout, previous, report.Benchmarks)
}

// loadPrevious reads the benchmarks from an existing results file into a
// name-indexed map. A missing or malformed file just means no delta table.
func loadPrevious(path string) map[string]Benchmark {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prev Report
	if err := json.Unmarshal(data, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: previous %s unreadable, skipping delta: %v\n", path, err)
		return nil
	}
	out := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		out[b.Name] = b
	}
	return out
}

// printDelta renders a ns/op + B/op + allocs/op comparison of the fresh run
// against the previous record, one row per benchmark present in both. The
// table makes perf regressions visible in the `make bench` output itself
// instead of only in the git diff of BENCH_results.json.
func printDelta(w io.Writer, prev map[string]Benchmark, cur []Benchmark) {
	rows := 0
	for _, b := range cur {
		p, ok := prev[b.Name]
		if !ok {
			continue
		}
		if rows++; rows == 1 {
			fmt.Fprintf(w, "\ndelta vs previous record (old -> new):\n")
			fmt.Fprintf(w, "%-44s %26s %26s %18s\n", "benchmark", "ns/op", "B/op", "allocs/op")
		}
		fmt.Fprintf(w, "%-44s %26s %26s %18s\n", b.Name,
			deltaCell(p.NsPerOp, b.NsPerOp),
			deltaCell(p.Metrics["B/op"], b.Metrics["B/op"]),
			deltaCell(p.Metrics["allocs/op"], b.Metrics["allocs/op"]))
	}
}

// deltaCell formats "old -> new (+x%)" for one metric; a metric absent on
// both sides renders as "-", and a zero baseline suppresses the percentage.
func deltaCell(old, cur float64) string {
	if old == 0 && cur == 0 {
		return "-"
	}
	if old == 0 {
		return fmt.Sprintf("0 -> %s", fmtNum(cur))
	}
	pct := (cur - old) / old * 100
	return fmt.Sprintf("%s -> %s (%+.1f%%)", fmtNum(old), fmtNum(cur), pct)
}

// fmtNum trims benchmark numbers for table cells: integers print bare, small
// fractions keep two decimals.
func fmtNum(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	if v < 100 {
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
	return strconv.FormatFloat(v, 'f', 0, 64)
}

// collapse merges the runs that share a name and GOMAXPROCS into one
// record each, in order of first appearance.
func collapse(runs []Benchmark) []Benchmark {
	var out []Benchmark
	groups := map[string][]Benchmark{}
	key := func(b Benchmark) string { return b.Name + "-" + strconv.Itoa(b.Procs) }
	for _, b := range runs {
		if groups[key(b)] == nil {
			out = append(out, Benchmark{Name: b.Name, Procs: b.Procs, Metrics: map[string]float64{}})
		}
		groups[key(b)] = append(groups[key(b)], b)
	}
	for i := range out {
		b, g := &out[i], groups[key(out[i])]
		b.Runs = len(g)
		iters, _, _ := spread(g, func(r Benchmark) float64 { return float64(r.Iterations) })
		b.Iterations = int64(iters)
		b.NsPerOp, b.NsPerOpMin, b.NsPerOpMax = spread(g, func(r Benchmark) float64 { return r.NsPerOp })
		for unit := range g[0].Metrics {
			b.Metrics[unit], _, _ = spread(g, func(r Benchmark) float64 { return r.Metrics[unit] })
		}
	}
	return out
}

// spread returns the median (the mean of the middle two for an even
// count), the minimum and the maximum of f over the runs.
func spread(runs []Benchmark, f func(Benchmark) float64) (med, lo, hi float64) {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = f(r)
	}
	sort.Float64s(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2, vs[0], vs[len(vs)-1]
}

// splitProcSuffix strips the trailing "-<GOMAXPROCS>" go test appends to
// benchmark names, so records diff cleanly across machines, and returns it
// (1 when absent: go test appends nothing at GOMAXPROCS 1).
func splitProcSuffix(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if procs, err := strconv.Atoi(name[i+1:]); i > 0 && err == nil && procs > 0 {
		return name[:i], procs
	}
	return name, 1
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkRankTop400n4-8   123456   9876 ns/op   12 extra-metric   3 B/op
//
// Lines that do not start with "Benchmark" (headers, PASS, ok) are skipped.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Iterations: iters}
	b.Name, b.Procs = splitProcSuffix(fields[0])
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
			continue
		}
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[unit] = v
	}
	if b.NsPerOp == 0 && b.Metrics == nil {
		return Benchmark{}, false
	}
	return b, true
}
