package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sqlb/internal/timeline"
)

// TestMain lets the test binary stand in for the sqlb-top binary: when
// re-executed with SQLB_TOP_MAIN=1 it runs main() on the given flags.
func TestMain(m *testing.M) {
	if os.Getenv("SQLB_TOP_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runTop re-executes the test binary as sqlb-top with the given flags.
func runTop(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SQLB_TOP_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestOnceRendersFinalFrame: -once over a recorded timeline prints one
// frame of the file's final state — its header carries the last row's
// time — and exits 0.
func TestOnceRendersFinalFrame(t *testing.T) {
	path := filepath.Join("..", "..", "artifacts", "flash_crowd_timeline.csv")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := timeline.ReadCSV(f)
	f.Close()
	if err != nil || len(rows) == 0 {
		t.Fatalf("read %s: %d rows, %v", path, len(rows), err)
	}
	out, err := runTop("-once", "-no-color", "-width", "80", path)
	if err != nil {
		t.Fatalf("sqlb-top -once: %v\n%s", err, out)
	}
	if want := fmt.Sprintf("t=%.1fs", rows[len(rows)-1].Time); !strings.Contains(out, want) {
		t.Errorf("frame does not show the last row's time %q:\n%s", want, out)
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("-no-color frame carries ANSI escapes:\n%q", out)
	}
}

// TestMissingFileFails: without -follow a file that does not exist is an
// error, not an empty dashboard.
func TestMissingFileFails(t *testing.T) {
	out, err := runTop("-once", filepath.Join(t.TempDir(), "absent.csv"))
	if err == nil {
		t.Fatalf("sqlb-top on a missing file exited 0:\n%s", out)
	}
	if !strings.Contains(out, "absent.csv") {
		t.Errorf("error does not name the file:\n%s", out)
	}
}
