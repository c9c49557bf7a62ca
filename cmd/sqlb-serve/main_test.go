package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the sqlb-serve binary: when
// re-executed with SQLB_SERVE_MAIN=1 it runs main() on the given flags, so
// the CLI tests below need no `go build` step.
func TestMain(m *testing.M) {
	if os.Getenv("SQLB_SERVE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runServe re-executes the test binary as sqlb-serve with the given flags
// and returns its combined output and exit error.
func runServe(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SQLB_SERVE_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestServeSmoke drives a short run at both ends of -batch — every arrival
// a batch of one, and the default coalescing — and reads the JSON report
// back: the ledger holds, mediations happened, and the report no longer
// carries the degraded-collection count of the deleted fan-out path.
func TestServeSmoke(t *testing.T) {
	for _, batch := range []int{1, 16} {
		path := filepath.Join(t.TempDir(), "report.json")
		out, err := runServe("-batch", strconv.Itoa(batch), "-scale", "0.05", "-qps", "400",
			"-warmup", "100ms", "-measure", "300ms", "-json", path)
		if err != nil {
			t.Fatalf("-batch %d: %v\n%s", batch, err, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("-batch %d: report missing: %v\n%s", batch, err, out)
		}
		var rep map[string]any
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("-batch %d: report unparseable: %v\n%s", batch, err, data)
		}
		count := func(key string) float64 {
			v, ok := rep[key].(float64)
			if !ok {
				t.Fatalf("-batch %d: report has no numeric %q:\n%s", batch, key, data)
			}
			return v
		}
		if got := count("batch"); got != float64(batch) {
			t.Errorf("-batch %d: report says batch %v", batch, got)
		}
		if count("mediated") == 0 {
			t.Errorf("-batch %d: no mediations in the measure window:\n%s", batch, data)
		}
		if sum := count("rejected") + count("mediated") + count("dropped") + count("errors"); sum != count("submitted") {
			t.Errorf("-batch %d: ledger broken, %v accounted of %v submitted:\n%s", batch, sum, count("submitted"), data)
		}
		if _, ok := rep["degraded_collections"]; ok {
			t.Errorf("-batch %d: report still carries degraded_collections", batch)
		}
	}
}

// TestServeTimeoutFlagIsGone: -timeout configured the intention-collection
// fan-out; with that path deleted the flag is unknown, not silently ignored.
func TestServeTimeoutFlagIsGone(t *testing.T) {
	out, err := runServe("-timeout", "1s", "-scale", "0.05", "-warmup", "0s", "-measure", "50ms")
	if err == nil {
		t.Fatalf("-timeout accepted:\n%s", out)
	}
	if !strings.Contains(out, "flag provided but not defined: -timeout") {
		t.Errorf("-timeout failed for another reason: %v\n%s", err, out)
	}
}

// TestFlagSurface: sqlb-serve keeps every flag, type and default it has always
// had; the population and profile flags it shares with the other runners
// are declared once, by internal/runflags.
func TestFlagSurface(t *testing.T) {
	out, err := runServe("-h")
	if err != nil {
		t.Fatalf("-h: %v\n%s", err, out)
	}
	want := []string{
		"-batch int=16", "-class-skew float=", "-classes int=", "-consumers int=",
		"-cpuprofile string=", "-json string=", "-measure duration=10s", "-memprofile string=",
		`-method string="sqlb"`, "-providers int=", "-qps float=200", "-queue int=1024",
		"-scale float=1", "-seed uint=42", "-selectivity float=",
		"-snapshot-interval duration=1s", "-timeline string=", "-top=", "-trace string=",
		"-warmup duration=2s", "-workers int=",
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
