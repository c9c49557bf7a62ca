package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for covergate: re-executed with
// COVERGATE_MAIN=1 it runs main() on the given flags.
func TestMain(m *testing.M) {
	if os.Getenv("COVERGATE_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// profile covers two packages: a has 3 of 4 statements covered, b 2 of 6,
// so the total is 5 of 10 = 50%.
const profile = `mode: set
sqlb/a/a.go:1.1,2.2 3 1
sqlb/a/a.go:3.1,4.2 1 0
sqlb/b/b.go:1.1,2.2 4 0
sqlb/b/b.go:3.1,4.2 2 7
`

func writeProfile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "coverage.out")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadTalliesPerPackage(t *testing.T) {
	perPkg, all, err := read(writeProfile(t, profile))
	if err != nil {
		t.Fatal(err)
	}
	if all != (tally{covered: 5, total: 10}) {
		t.Errorf("total tally %+v, want 5/10", all)
	}
	if perPkg["sqlb/a"] != (tally{3, 4}) || perPkg["sqlb/b"] != (tally{2, 6}) {
		t.Errorf("per-package tallies %+v", perPkg)
	}
	if _, _, err := read(writeProfile(t, "mode: set\nsqlb/a/a.go:1.1,2.2 x 1\n")); err == nil {
		t.Error("a malformed statement count was accepted")
	}
}

// TestGateAtTheFloor: a total exactly at -min passes, one just below it
// fails with a message naming both numbers.
func TestGateAtTheFloor(t *testing.T) {
	path := writeProfile(t, profile)
	run := func(min string) (string, error) {
		cmd := exec.Command(os.Args[0], "-profile", path, "-min", min)
		cmd.Env = append(os.Environ(), "COVERGATE_MAIN=1")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	out, err := run("50")
	if err != nil {
		t.Fatalf("total 50%% failed a 50%% floor: %v\n%s", err, out)
	}
	if !strings.Contains(out, "sqlb/a") || !strings.Contains(out, "sqlb/b") {
		t.Errorf("breakdown misses a package:\n%s", out)
	}
	out, err = run("50.1")
	if err == nil {
		t.Fatalf("total 50%% passed a 50.1%% floor:\n%s", out)
	}
	if !strings.Contains(out, "50.0% is below the 50.1% floor") {
		t.Errorf("failure message:\n%s", out)
	}
}
