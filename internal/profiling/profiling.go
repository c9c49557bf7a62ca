// Package profiling wires the -cpuprofile / -memprofile flags of the
// commands to runtime/pprof, so an optimisation can start from a profile
// of the real binary (ROADMAP aim 1) instead of a benchmark stand-in.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath (when non-empty) and returns the
// function that ends it and then writes the heap profile to memPath (when
// non-empty). The caller runs stop once, after the measured work; with both
// paths empty Start does nothing and stop returns nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
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
