package runflags

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sqlb/internal/model"
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

func TestBindPopulation(t *testing.T) {
	parse := func(args ...string) model.Config {
		t.Helper()
		fs := flag.NewFlagSet("runflags", flag.ContinueOnError)
		pop := BindPopulation(fs, 0.25)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return pop.Config()
	}
	if got, want := parse(), model.DefaultConfig().Scale(0.25); !reflect.DeepEqual(got, want) {
		t.Errorf("defaults lower to\n%+v\nwant Table 2 at scale 0.25\n%+v", got, want)
	}
	want := model.DefaultConfig().Scale(0.1).WithClasses(6)
	want.CapabilitySelectivity = 0.34
	want.ClassSkew = 1
	got := parse("-scale", "0.1", "-classes", "6", "-selectivity", "0.34", "-class-skew", "1")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags lower to\n%+v\nwant\n%+v", got, want)
	}
}

func TestBindProfile(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	fs := flag.NewFlagSet("runflags", flag.ContinueOnError)
	prof := BindProfile(fs)
	var args []string
	for _, name := range []string{"cpuprofile", "memprofile", "trace"} {
		paths[name] = filepath.Join(dir, name)
		args = append(args, "-"+name, paths[name])
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := prof.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for name, path := range paths {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("-%s: %s missing or empty (%v)", name, path, err)
		}
	}
}
