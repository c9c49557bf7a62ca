package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for benchjson: re-executed with
// BENCHJSON_MAIN=1 it runs main() on the given flags and stdin.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHJSON_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const transcript = `goos: linux
goarch: amd64
pkg: sqlb
BenchmarkSimulation-2          	       1	 800000000 ns/op	     19677 queries/run	 9850248 B/op	   19677 allocs/op
BenchmarkRankTop400n4-2        	   50000	     24000 ns/op	       0 B/op	       0 allocs/op
BenchmarkFresh                 	     100	      1500 ns/op
PASS
ok  	sqlb	3.210s
`

// TestParseTranscriptAndDelta feeds a short go test -bench transcript with
// a previous record in place: the new record holds every benchmark line
// with the GOMAXPROCS suffix trimmed and the extra metrics kept, and the
// delta table has one row per benchmark present in both records.
func TestParseTranscriptAndDelta(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	prev := Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkSimulation", Iterations: 1, NsPerOp: 1e9,
			Metrics: map[string]float64{"B/op": 9850248, "allocs/op": 20000}},
		{Name: "BenchmarkGone", Iterations: 1, NsPerOp: 5},
	}}
	data, err := json.Marshal(prev)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-out", out)
	cmd.Env = append(os.Environ(), "BENCHJSON_MAIN=1")
	cmd.Stdin = strings.NewReader(transcript)
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchjson: %v\n%s", err, stdout)
	}

	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, b := range got.Benchmarks {
		names = append(names, b.Name)
	}
	if strings.Join(names, ",") != "BenchmarkSimulation,BenchmarkRankTop400n4,BenchmarkFresh" {
		t.Fatalf("recorded benchmarks %v", names)
	}
	if sim := got.Benchmarks[0]; sim.NsPerOp != 8e8 || sim.Metrics["queries/run"] != 19677 || sim.Metrics["allocs/op"] != 19677 {
		t.Errorf("BenchmarkSimulation parsed as %+v", sim)
	}

	// One delta row, for the one benchmark both records hold.
	s := string(stdout)
	row := regexp.MustCompile(`(?m)^BenchmarkSimulation\s+1000000000 -> 800000000 \(-20\.0%\)\s+9850248 -> 9850248 \(\+0\.0%\)\s+20000 -> 19677 \(-1\.6%\)$`)
	if !row.MatchString(s) {
		t.Errorf("no delta row for BenchmarkSimulation in:\n%s", s)
	}
	for _, absent := range []string{"BenchmarkGone", "BenchmarkFresh  "} {
		if i := strings.Index(s, "delta vs previous"); i < 0 || strings.Contains(s[i:], absent) {
			t.Errorf("delta table missing or lists %q:\n%s", absent, s)
		}
	}
}

// TestCountRepeatsCollapse: the repeats of `-count n` become one record per
// benchmark with the median ns/op and metrics, the ns/op range and the run
// count, in first-appearance order and stamped with the GOMAXPROCS of the
// name suffix; the delta table compares the medians.
func TestCountRepeatsCollapse(t *testing.T) {
	const repeats = `BenchmarkRankTop400n1-2   	 1000	 5000 ns/op	 0 B/op	 0 allocs/op
BenchmarkNotify400-2      	 2000	   15 ns/op	 12 ns/candidate
BenchmarkRankTop400n1-2   	 1000	 9000 ns/op	 0 B/op	 0 allocs/op
BenchmarkNotify400-2      	 4000	   11 ns/op	 10 ns/candidate
BenchmarkRankTop400n1-2   	 3000	 6000 ns/op	 0 B/op	 0 allocs/op
BenchmarkSerial           	   10	  100 ns/op
`
	out := filepath.Join(t.TempDir(), "bench.json")
	data, err := json.Marshal(Report{Benchmarks: []Benchmark{{Name: "BenchmarkRankTop400n1", NsPerOp: 8000}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-out", out)
	cmd.Env = append(os.Environ(), "BENCHJSON_MAIN=1")
	cmd.Stdin = strings.NewReader(repeats)
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchjson: %v\n%s", err, stdout)
	}
	if data, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkRankTop400n1", Procs: 2, Runs: 3, Iterations: 1000, NsPerOp: 6000, NsPerOpMin: 5000, NsPerOpMax: 9000,
			Metrics: map[string]float64{"B/op": 0, "allocs/op": 0}},
		{Name: "BenchmarkNotify400", Procs: 2, Runs: 2, Iterations: 3000, NsPerOp: 13, NsPerOpMin: 11, NsPerOpMax: 15,
			Metrics: map[string]float64{"ns/candidate": 11}},
		{Name: "BenchmarkSerial", Procs: 1, Runs: 1, Iterations: 10, NsPerOp: 100, NsPerOpMin: 100, NsPerOpMax: 100},
	}
	if !reflect.DeepEqual(got.Benchmarks, want) {
		t.Errorf("records\n%+v\nwant\n%+v", got.Benchmarks, want)
	}
	if !regexp.MustCompile(`(?m)^BenchmarkRankTop400n1\s+8000 -> 6000 \(-25\.0%\)`).Match(stdout) {
		t.Errorf("delta row does not compare the median:\n%s", stdout)
	}
}

func TestParseLineSkipsNonResults(t *testing.T) {
	for _, line := range []string{"PASS", "ok  	sqlb	3.2s", "BenchmarkX-2 notanumber 5 ns/op", "goos: linux"} {
		if b, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) = %+v, want skipped", line, b)
		}
	}
}
