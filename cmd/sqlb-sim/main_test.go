package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// TestRepeatedCSVExport: -timeline with -repeats must write one timeline
// file per repetition under the deterministic RepetitionPath scheme —
// every file present, parseable, announced on stdout, distinct across
// repetitions (different seeds), and byte-identical across identical
// invocations.
func TestRepeatedCSVExport(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "run.csv")
	args := []string{"-timeline", base, "-repeats", "3", "-duration", "300",
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

// TestFlagSurface: sqlb-sim keeps every flag, type and default it has always
// had; the population and profile flags it shares with the other runners
// are declared once, by internal/runflags.
func TestFlagSurface(t *testing.T) {
	out := runSim(t, "-h")
	want := []string{
		`-autonomy string="off"`, "-class-skew float=", "-classes int=", "-cpuprofile string=",
		"-duration float=2500", "-memprofile string=", `-method string="sqlb"`, "-ramp=",
		"-repeats int=1", "-scale float=0.25", "-scenario string=", "-seed uint=42",
		"-selectivity float=", "-timeline string=", "-top=", "-trace string=", "-workers int=",
		"-workload float=0.8",
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

// TestTopDrawsTheFirstRepetition: -top hides the cursor, draws the first
// repetition's dashboard once per sample and gives the cursor back before
// the summary, while -timeline still writes every repetition's file.
func TestTopDrawsTheFirstRepetition(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run.csv")
	out := runSim(t, "-top", "-timeline", base, "-repeats", "2", "-duration", "200", "-scale", "0.05")
	hide, show := strings.Index(out, timeline.HideCursor), strings.Index(out, timeline.ShowCursor)
	if hide < 0 || show < hide || !strings.HasPrefix(out[show+len(timeline.ShowCursor):], "repetitions") {
		t.Fatalf("cursor not hidden, then shown right before the summary:\n%q", out)
	}
	// 50 samples and the final state: one frame each.
	if frames := strings.Count(out, timeline.HomeAndClear); frames != 51 {
		t.Errorf("%d frames drawn, want 51", frames)
	}
	for rep := 0; rep < 2; rep++ {
		if _, err := os.Stat(timeline.RepetitionPath(base, rep, 2)); err != nil {
			t.Errorf("repetition %d timeline missing: %v", rep, err)
		}
	}
}
