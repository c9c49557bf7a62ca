package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}
}

func TestStartWithoutPathsDoesNothing(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

func TestStartReportsUnwritablePaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p.pprof")
	if _, err := Start(missing, ""); err == nil {
		t.Error("unwritable CPU profile path accepted")
	}
	stop, err := Start("", missing)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err == nil {
		t.Error("unwritable heap profile path accepted")
	}
}
