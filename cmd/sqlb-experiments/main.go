// Command sqlb-experiments regenerates the tables and figures of the SQLB
// paper's evaluation (VLDB 2007, Section 6). Each experiment prints an
// aligned text rendition and, with -out, writes a CSV per chart/table.
//
// Usage:
//
//	sqlb-experiments [-run id[,id...]] [-scale f] [-duration s] [-sweep s]
//	                 [-repeats n] [-seed n] [-workers n]
//	                 [-workloads csv]
//	                 [-classes k] [-selectivity s] [-class-skew z]
//	                 [-selectivities csv] [-scenarios csv] [-out dir]
//	                 [-timeline-dir dir] [-list]
//	                 [-cpuprofile file] [-memprofile file] [-trace file]
//
// The paper's full scale is -scale 1 -duration 10000 -sweep 10000
// -repeats 10; the defaults reproduce the same shapes at laptop cost.
// -classes/-selectivity/-class-skew switch every run to a heterogeneous
// capability workload (see the ext-selectivity experiment for the swept
// version).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sqlb/internal/experiments"
	"sqlb/internal/runflags"
	"sqlb/internal/timeline"
)

func main() {
	var (
		runIDs    = flag.String("run", "", "comma-separated experiment IDs (default: the 17 paper experiments; the ext-* extensions run only by name, see -list)")
		duration  = flag.Float64("duration", 2500, "figure-4 ramp horizon (sim-seconds)")
		sweepDur  = flag.Float64("sweep", 5000, "per-workload run horizon (sim-seconds)")
		repeats   = flag.Int("repeats", 2, "repetitions per configuration (paper: 10)")
		seed      = flag.Uint64("seed", 1, "base seed")
		workers   = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS; output is identical at any value)")
		workloads = flag.String("workloads", "", "comma-separated workload fractions (default 0.2..1.0)")
		outDir    = flag.String("out", "", "directory for CSV output (omit to skip)")
		list      = flag.Bool("list", false, "list experiment IDs and exit")
		sels      = flag.String("selectivities", "", "comma-separated selectivities for ext-selectivity (default 0.125,0.25,0.5,0.75,1)")
		scens     = flag.String("scenarios", "", "comma-separated scenario presets or files for ext-scenarios (default: every preset)")
		tlDir     = flag.String("timeline-dir", "", "stream every simulation run's timeline as <dir>/<run-id>.csv (replayable with sqlb-top)")
	)
	pop := runflags.BindPopulation(flag.CommandLine, 0.25)
	prof := runflags.BindProfile(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, s := range experiments.Registry {
			fmt.Printf("%-12s %s\n", s.ID, s.Title)
		}
		for _, s := range experiments.ExtensionRegistry {
			fmt.Printf("%-12s %s (extension)\n", s.ID, s.Title)
		}
		return
	}

	cfg := experiments.Config{
		Model:         pop.Config(),
		Duration:      *duration,
		SweepDuration: *sweepDur,
		Repeats:       *repeats,
		BaseSeed:      *seed,
		Workers:       *workers,
	}
	cfg.Workloads = parseFloats(*workloads, "-workloads")
	cfg.Selectivities = parseFloats(*sels, "-selectivities")
	if *tlDir != "" {
		if err := os.MkdirAll(*tlDir, 0o755); err != nil {
			fatal("mkdir %s: %v", *tlDir, err)
		}
		dir := *tlDir
		cfg.Timeline = func(runID string) timeline.Sink {
			// Run IDs carry their identity as path segments
			// (ramp/SQLB/rep0); flatten them into one file name.
			name := strings.ReplaceAll(runID, "/", "_") + ".csv"
			sink, err := timeline.CreateCSV(filepath.Join(dir, name))
			if err != nil {
				fatal("timeline %s: %v", runID, err)
			}
			return sink
		}
	}
	if *scens != "" {
		for _, part := range strings.Split(*scens, ",") {
			cfg.Scenarios = append(cfg.Scenarios, strings.TrimSpace(part))
		}
	}
	lab := experiments.NewLab(cfg)

	ids := selectedIDs(*runIDs)

	stopProfile, err := prof.Start()
	if err != nil {
		fatal("%v", err)
	}
	for _, id := range ids {
		start := time.Now()
		res, err := lab.RunAny(id)
		if err != nil {
			fatal("%s: %v", id, err)
		}
		fmt.Printf("===== %s — %s (%.1fs)\n", res.ID, res.Title, time.Since(start).Seconds())
		for _, c := range res.Charts {
			fmt.Println(c.Render())
			writeCSV(*outDir, c.ID, c.CSV())
		}
		for _, t := range res.Tables {
			fmt.Println(t.Render())
			writeCSV(*outDir, t.ID, t.CSV())
		}
		for _, n := range res.Notes {
			fmt.Printf("note: %s\n", n)
		}
		fmt.Println()
	}
	if err := stopProfile(); err != nil {
		fatal("%v", err)
	}
}

// selectedIDs returns the experiments -run names, in order: the paper's
// (experiments.Registry) when it names none. The extensions run only by
// name.
func selectedIDs(run string) []string {
	var ids []string
	if run == "" {
		for _, s := range experiments.Registry {
			ids = append(ids, s.ID)
		}
		return ids
	}
	for _, id := range strings.Split(run, ",") {
		ids = append(ids, strings.TrimSpace(id))
	}
	return ids
}

// parseFloats parses a comma-separated float list; an empty flag yields
// nil (keep the lab defaults).
func parseFloats(csv, flagName string) []float64 {
	if csv == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(csv, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal("bad %s value %q: %v", flagName, part, err)
		}
		out = append(out, f)
	}
	return out
}

func writeCSV(dir, id, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal("mkdir %s: %v", dir, err)
	}
	path := filepath.Join(dir, id+".csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		fatal("write %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlb-experiments: "+format+"\n", args...)
	os.Exit(1)
}
