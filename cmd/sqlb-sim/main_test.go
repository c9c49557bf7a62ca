package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sqlb/internal/timeline"
)

// TestMain lets the test binary stand in for the sqlb-sim binary: when
// re-executed with SQLB_SIM_MAIN=1 it runs main() on the given flags, so
// the CLI tests below need no `go build` step.
func TestMain(m *testing.M) {
	if os.Getenv("SQLB_SIM_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runSim re-executes the test binary as sqlb-sim with the given flags.
func runSim(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SQLB_SIM_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("sqlb-sim %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestRepeatedCSVExport is the ride-along fix's pin: -csv with -repeats
// must write one timeline file per repetition under the deterministic
// RepetitionPath scheme — every file present, parseable, announced on
// stdout, distinct across repetitions (different seeds), and
// byte-identical across identical invocations.
func TestRepeatedCSVExport(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "run.csv")
	args := []string{"-csv", base, "-repeats", "3", "-duration", "300",
		"-scale", "0.05", "-workers", "2", "-seed", "7"}
	out := runSim(t, args...)

	var contents []string
	for rep := 0; rep < 3; rep++ {
		path := timeline.RepetitionPath(base, rep, 3)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("repetition %d timeline missing: %v\nstdout:\n%s", rep, err, out)
		}
		rows, err := timeline.ReadCSV(strings.NewReader(string(b)))
		if err != nil {
			t.Fatalf("repetition %d timeline unparseable: %v", rep, err)
		}
		if len(rows) == 0 {
			t.Fatalf("repetition %d timeline has no rows", rep)
		}
		if !strings.Contains(out, "wrote "+path) {
			t.Errorf("stdout does not announce %s:\n%s", path, out)
		}
		contents = append(contents, string(b))
	}
	if contents[0] == contents[1] || contents[1] == contents[2] {
		t.Error("repetition timelines are identical; seeds were not varied per repetition")
	}
	if _, err := os.Stat(base); err == nil {
		t.Errorf("plain %s exists; repetitions must not clobber one shared file", base)
	}

	// The naming scheme and the file bytes are deterministic: rerunning
	// the exact invocation reproduces every file.
	dir2 := t.TempDir()
	base2 := filepath.Join(dir2, "run.csv")
	args2 := append([]string{}, args...)
	args2[1] = base2
	runSim(t, args2...)
	for rep := 0; rep < 3; rep++ {
		b, err := os.ReadFile(timeline.RepetitionPath(base2, rep, 3))
		if err != nil {
			t.Fatalf("rerun repetition %d: %v", rep, err)
		}
		if string(b) != contents[rep] {
			t.Errorf("rerun repetition %d produced different bytes", rep)
		}
	}
}

// TestSingleRunKeepsPlainCSVPath: without -repeats the user's exact file
// name is kept (no .rep0 suffix), preserving the historical contract.
func TestSingleRunKeepsPlainCSVPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tl.csv")
	out := runSim(t, "-timeline", path, "-duration", "200", "-scale", "0.05")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("timeline file missing: %v\nstdout:\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(dir, "tl.rep0.csv")); err == nil {
		t.Error("single run wrote tl.rep0.csv; want the plain path only")
	}
}

// TestNonFiniteDurationFails: a NaN or infinite -duration would never end
// the event loop. It must exit non-zero at once, with an error naming the
// field.
func TestNonFiniteDurationFails(t *testing.T) {
	for _, d := range []string{"NaN", "Inf", "-Inf"} {
		cmd := exec.Command(os.Args[0], "-duration", d, "-scale", "0.05")
		cmd.Env = append(os.Environ(), "SQLB_SIM_MAIN=1")
		start := time.Now()
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("-duration %s exited 0:\n%s", d, out)
		}
		if !strings.Contains(string(out), "duration") {
			t.Errorf("-duration %s: error does not name the field:\n%s", d, out)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Errorf("-duration %s took %v to fail", d, el)
		}
	}
}
