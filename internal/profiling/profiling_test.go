package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem, tr := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "trace.out")
	stop, err := Start(cpu, mem, tr)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, mem, tr} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}
}

func TestStartWithoutPathsDoesNothing(t *testing.T) {
	stop, err := Start("", "", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestStartReportsUnwritablePaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p.pprof")
	if _, err := Start(missing, "", ""); err == nil {
		t.Error("unwritable CPU profile path accepted")
	}
	// A trace that cannot start must not leave the CPU profile running:
	// the next Start would find it busy.
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, err := Start(cpu, "", missing); err == nil {
		t.Error("unwritable trace path accepted")
	}
	if stop, err := Start(cpu, "", ""); err != nil {
		t.Errorf("CPU profile left running by a failed Start: %v", err)
	} else if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	stop, err := Start("", missing, "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable heap profile path accepted")
	}
}
