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

// TestFlagSurface: sqlb-experiments keeps every flag, type and default it has always
// had; the population and profile flags it shares with the other runners
// are declared once, by internal/runflags.
func TestFlagSurface(t *testing.T) {
	out, err := runExperiments("-h")
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	want := []string{
		"-class-skew float=", "-classes int=", "-cpuprofile string=", "-duration float=2500",
		"-list=", "-memprofile string=", "-out string=", "-repeats int=2", "-run string=",
		"-scale float=0.25", "-scenarios string=", "-seed uint=1",
		"-selectivities string=0.125,0.25,0.5,0.75,1", "-selectivity float=",
		"-sweep float=5000", "-timeline-dir string=", "-trace string=", "-workers int=",
		"-workloads string=0.2..1.0",
	}
	if got := flagSurface(out); !slices.Equal(got, want) {
		t.Errorf("-h lists\n%q\nwant\n%q", got, want)
	}
}

// flagSurface reads a -h listing into one "-name type=default" entry per
// flag, in the listing's (alphabetical) order; a flag the listing shows no
// default for ends in "=". The -test.* flags of the test binary standing in
// for the command are left out.
func flagSurface(usage string) []string {
	var out []string
	keep := false
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			if keep = !strings.HasPrefix(line, "  -test."); keep {
				out = append(out, strings.TrimSpace(line)+"=")
			}
		} else if i := strings.LastIndex(line, "(default "); keep && i >= 0 && strings.HasSuffix(line, ")") {
			out[len(out)-1] += line[i+len("(default ") : len(line)-1]
		}
	}
	return out
}
