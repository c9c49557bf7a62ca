package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the sqlb-experiments binary:
// re-executed with SQLB_EXPERIMENTS_MAIN=1 it runs main() on the given
// flags, so the CLI tests below need no `go build` step.
func TestMain(m *testing.M) {
	if os.Getenv("SQLB_EXPERIMENTS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runExperiments re-executes the test binary as sqlb-experiments and
// returns its combined output and exit error.
func runExperiments(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SQLB_EXPERIMENTS_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestSmokeRunWritesCSVAndProfiles drives one simulated experiment at smoke
// scale end to end: the chart is rendered and written under -out, and
// -cpuprofile / -memprofile leave non-empty profiles of the run.
func TestSmokeRunWritesCSVAndProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	out, err := runExperiments("-run", "fig4i", "-scale", "0.05", "-sweep", "300", "-repeats", "1",
		"-workloads", "0.4,0.8", "-out", dir, "-cpuprofile", cpu, "-memprofile", mem)
	if err != nil {
		t.Fatalf("sqlb-experiments: %v\n%s", err, out)
	}
	if !strings.Contains(out, "===== fig4i") {
		t.Errorf("no fig4i header in the output:\n%s", out)
	}
	for _, path := range []string{filepath.Join(dir, "fig4i.csv"), cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}
}

// TestListAndBadInputs: -list names the paper's experiments and the
// extensions; an unknown experiment and an unwritable profile path exit
// non-zero with the command's name on the message.
func TestListAndBadInputs(t *testing.T) {
	out, err := runExperiments("-list")
	if err != nil || !strings.Contains(out, "table1") || !strings.Contains(out, "(extension)") {
		t.Errorf("-list: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-run", "no-such-experiment"},
		{"-run", "fig2", "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.pprof")},
	} {
		out, err := runExperiments(args...)
		if err == nil || !strings.Contains(out, "sqlb-experiments:") {
			t.Errorf("%v: err %v, output:\n%s", args, err, out)
		}
	}
}

// TestDefaultRunIsThePaper pins what -run selects: with no -run, the 17
// paper experiments in Registry order and no extension; named IDs, an
// extension included, as given.
func TestDefaultRunIsThePaper(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "fig4g",
		"fig4h", "fig4i", "fig5a", "fig5b", "fig5c", "table3", "fig6"}
	if got := selectedIDs(""); !slices.Equal(got, want) {
		t.Errorf("default -run selects %v, want %v", got, want)
	}
	if got := selectedIDs("ext-omega, fig2"); !slices.Equal(got, []string{"ext-omega", "fig2"}) {
		t.Errorf("-run ext-omega,fig2 selects %v", got)
	}
}
