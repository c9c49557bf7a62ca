// Package profiling wires the -cpuprofile / -memprofile / -trace flags of
// the commands to runtime/pprof and runtime/trace, so an optimisation can
// start from a profile of the real binary (ROADMAP aim 1) instead of a
// benchmark stand-in.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

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
