package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
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
