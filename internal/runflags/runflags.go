// Package runflags declares the flags the commands share, once: the
// population description (-scale, -classes, -selectivity, -class-skew),
// lowered into one model.Config, and the -cpuprofile / -memprofile /
// -trace outputs, wired to runtime/pprof and runtime/trace so an
// optimisation can start from a profile of the real binary (ROADMAP aim 1)
// instead of a benchmark stand-in.
package runflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"sqlb/internal/model"
)

// Population holds the four population flags of one flag set.
type Population struct {
	Scale, Selectivity, ClassSkew float64
	Classes                       int
}

// BindPopulation defines -scale (defaulting to defaultScale), -classes,
// -selectivity and -class-skew on fs.
func BindPopulation(fs *flag.FlagSet, defaultScale float64) *Population {
	p := &Population{}
	fs.Float64Var(&p.Scale, "scale", defaultScale, "population scale relative to the paper's 200/400")
	fs.IntVar(&p.Classes, "classes", 0, "query classes spread over 130-150 units (0 = the paper's two)")
	fs.Float64Var(&p.Selectivity, "selectivity", 0, "fraction of classes each provider advertises (0 or 1 = all, the paper's setup)")
	fs.Float64Var(&p.ClassSkew, "class-skew", 0, "Zipf exponent of query-class popularity (0 = uniform)")
	return p
}

// Config lowers the flags into the population's configuration: Table 2 at
// the flagged scale and class count, with the selectivity and skew set.
func (p *Population) Config() model.Config {
	cfg := model.DefaultConfig().Scale(p.Scale).WithClasses(p.Classes)
	cfg.CapabilitySelectivity = p.Selectivity
	cfg.ClassSkew = p.ClassSkew
	return cfg
}

// Profile holds the three profile flags of one flag set.
type Profile struct {
	cpu, mem, trace string
}

// BindProfile defines -cpuprofile, -memprofile and -trace on fs.
func BindProfile(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile taken after the run to this file")
	fs.StringVar(&p.trace, "trace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	return p
}

// Start begins the profiles the flags ask for (see Start).
func (p *Profile) Start() (stop func() error, err error) { return Start(p.cpu, p.mem, p.trace) }

// Start begins a CPU profile into cpuPath and an execution trace (for
// `go tool trace`) into tracePath, each when non-empty, and returns the
// function that ends them and then writes the heap profile to memPath (when
// non-empty). The caller runs stop once, after the measured work; with all
// paths empty Start does nothing and stop returns nil.
func Start(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpu, tr *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if tracePath != "" {
		if tr, err = os.Create(tracePath); err == nil {
			if err = trace.Start(tr); err != nil {
				tr.Close()
			}
		}
		if err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, fmt.Errorf("execution trace: %w", err)
		}
	}
	return func() error {
		if tr != nil {
			trace.Stop()
			if err := tr.Close(); err != nil {
				return fmt.Errorf("execution trace: %w", err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		// A collection first, so the profile shows what is live after the
		// run rather than garbage the last cycle had not reached.
		runtime.GC()
		if err := pprof.WriteHeapProfile(mem); err != nil {
			mem.Close()
			return fmt.Errorf("heap profile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}
