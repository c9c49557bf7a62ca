// Command sqlb-serve runs the mediator as a long-lived service and measures
// its steady-state throughput: an open-loop Poisson arrival schedule drives
// queries at -qps into a bounded submit queue (full queue = rejection, the
// admission-control backpressure), a worker pool mediates them in batches,
// and after the warmup window the run reports mediations/sec and the
// p50/p95/p99 mediation latency.
//
// Unlike sqlb-sim — which simulates the *participants'* world over virtual
// time — sqlb-serve stresses the mediator itself over wall-clock time: the
// ROADMAP's mediator-as-a-service item.
//
// Observability: -timeline streams one snapshot per -snapshot-interval
// (plus a final one after the pool drains) to a CSV file another terminal
// can watch live with sqlb-top -file run.csv -follow; -top renders the
// dashboard in-process instead. The interval deltas in the snapshots sum
// exactly to the final report's totals.
//
// Usage:
//
//	sqlb-serve [-method sqlb|capacity|mariposa|random|knbest|sqlb-econ]
//	           [-qps n] [-workers n] [-batch n] [-queue n]
//	           [-warmup d] [-measure d]
//	           [-scale f] [-providers n] [-consumers n]
//	           [-classes k] [-selectivity s] [-class-skew z]
//	           [-seed n] [-json file]
//	           [-timeline file] [-snapshot-interval d] [-top]
//	           [-cpuprofile file] [-memprofile file] [-trace file]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/profiling"
	"sqlb/internal/serving"
	"sqlb/internal/timeline"
)

func main() {
	var (
		method    = flag.String("method", "sqlb", "allocation method: sqlb, capacity, mariposa, random, knbest, sqlb-econ")
		qps       = flag.Float64("qps", 200, "open-loop arrival rate (queries/second)")
		workers   = flag.Int("workers", 0, "mediation worker-pool size (0 = GOMAXPROCS)")
		batch     = flag.Int("batch", 16, "max mediations per batch")
		queue     = flag.Int("queue", 1024, "submit-queue depth; full queue rejects arrivals")
		warmup    = flag.Duration("warmup", 2*time.Second, "warmup window discarded from the report")
		measure   = flag.Duration("measure", 10*time.Second, "steady-state measurement window")
		scale     = flag.Float64("scale", 1, "population scale relative to the paper's 200/400")
		providers = flag.Int("providers", 0, "provider count override (0 = scaled default)")
		consumers = flag.Int("consumers", 0, "consumer count override (0 = scaled default)")
		classes   = flag.Int("classes", 0, "query classes spread over 130-150 units (0 = the paper's two)")
		select_   = flag.Float64("selectivity", 0, "fraction of classes each provider advertises (0 or 1 = all)")
		skew      = flag.Float64("class-skew", 0, "Zipf exponent of query-class popularity (0 = uniform)")
		seed      = flag.Uint64("seed", 42, "run seed")
		jsonPath  = flag.String("json", "", "also write the report as JSON to this file")
		tlPath    = flag.String("timeline", "", "stream interval timeline snapshots to this CSV file (watch with sqlb-top)")
		tlEvery   = flag.Duration("snapshot-interval", time.Second, "timeline snapshot cadence")
		top       = flag.Bool("top", false, "render the live sqlb-top dashboard while the run executes")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run (population build excluded) to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
		traceOut  = flag.String("trace", "", "write a runtime execution trace of the run to this file (go tool trace)")
	)
	flag.Parse()

	strategy, err := strategyFor(*method, *seed)
	if err != nil {
		fatal("%v", err)
	}
	mcfg := model.DefaultConfig().Scale(*scale).WithClasses(*classes)
	mcfg.CapabilitySelectivity = *select_
	mcfg.ClassSkew = *skew
	if *providers > 0 {
		mcfg.Providers = *providers
	}
	if *consumers > 0 {
		mcfg.Consumers = *consumers
	}

	// Timeline plumbing: CSV sink for -timeline, in-process dashboard for
	// -top, both behind one collector so either can be enabled alone.
	var tlSinks []timeline.Sink
	if *tlPath != "" {
		cs, err := timeline.CreateCSV(*tlPath)
		if err != nil {
			fatal("%v", err)
		}
		// Flush each row as it is written so another terminal tailing the
		// file (sqlb-top -follow) sees it while the run is still going.
		cs.FlushEveryRow = true
		tlSinks = append(tlSinks, cs)
	}
	var col *timeline.Collector
	var sink timeline.Sink
	if len(tlSinks) > 0 || *top {
		col = timeline.NewCollector(0, 0, tlSinks...)
		sink = col
		if *top {
			dash := &timeline.Dashboard{Color: true}
			fmt.Print(timeline.HideCursor)
			sink = timeline.SinkFunc(func(s timeline.Snapshot) error {
				err := col.Append(s)
				win := col.Window()
				fmt.Print(timeline.HomeAndClear + dash.Frame(win, timeline.Assess(win)))
				return err
			})
		}
	}

	cfg := serving.Config{
		Model:            mcfg,
		Strategy:         strategy,
		TargetQPS:        *qps,
		Workers:          *workers,
		Batch:            *batch,
		QueueDepth:       *queue,
		Warmup:           *warmup,
		Measure:          *measure,
		Seed:             *seed,
		Timeline:         sink,
		SnapshotInterval: *tlEvery,
	}
	d, err := serving.NewDriver(cfg)
	if err != nil {
		fatal("%v", err)
	}

	// Ctrl-C cuts the run short but still reports what was measured.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(os.Stderr, "sqlb-serve: driving %.0f qps for %v (after %v warmup)...\n",
		*qps, *measure, *warmup)
	stopProfile, err := profiling.Start(*cpuProf, *memProf, *traceOut)
	if err != nil {
		fatal("%v", err)
	}
	rep, err := d.Run(ctx)
	if perr := stopProfile(); perr != nil {
		fatal("%v", perr)
	}
	if col != nil {
		if *top {
			fmt.Print(timeline.ShowCursor + "\n")
		}
		tlErr := d.TimelineErr()
		if cerr := col.Close(); cerr != nil && tlErr == nil {
			tlErr = cerr
		}
		if tlErr != nil {
			fatal("timeline: %v", tlErr)
		}
		if *tlPath != "" {
			fmt.Fprintf(os.Stderr, "sqlb-serve: wrote %s\n", *tlPath)
		}
	}
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(rep)

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal("marshal report: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal("write %s: %v", *jsonPath, err)
		}
		fmt.Fprintf(os.Stderr, "sqlb-serve: wrote %s\n", *jsonPath)
	}
}

func strategyFor(name string, seed uint64) (allocator.Allocator, error) {
	switch name {
	case "sqlb":
		return allocator.NewSQLB(), nil
	case "capacity":
		return allocator.NewCapacityBased(), nil
	case "mariposa":
		return allocator.NewMariposaLike(), nil
	case "random":
		return allocator.NewRandom(seed), nil
	case "knbest":
		return allocator.NewKnBest(), nil
	case "sqlb-econ":
		return allocator.NewSQLBEconomic(), nil
	}
	return nil, fmt.Errorf("unknown method %q", name)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlb-serve: "+format+"\n", args...)
	os.Exit(1)
}
