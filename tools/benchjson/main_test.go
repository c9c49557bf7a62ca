package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
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

func TestParseLineSkipsNonResults(t *testing.T) {
	for _, line := range []string{"PASS", "ok  	sqlb	3.2s", "BenchmarkX-2 notanumber 5 ns/op", "goos: linux"} {
		if b, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) = %+v, want skipped", line, b)
		}
	}
}
