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
//	sqlb-serve [-method name]
//	           [-qps n] [-workers n] [-batch n] [-queue n]
//	           [-warmup d] [-measure d]
//	           [-scale f] [-providers n] [-consumers n]
//	           [-classes k] [-selectivity s] [-class-skew z]
//	           [-seed n] [-json file]
//	           [-timeline file] [-snapshot-interval d] [-top]
//	           [-cpuprofile file] [-memprofile file] [-trace file]
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/runflags"
	"sqlb/internal/serving"
	"sqlb/internal/timeline"
)

func main() {
	var (
		method    = flag.String("method", "sqlb", "allocation method: "+allocator.Methods.Names())
		qps       = flag.Float64("qps", 200, "open-loop arrival rate (queries/second)")
		workers   = flag.Int("workers", 0, "mediation worker-pool size (0 = GOMAXPROCS)")
		batch     = flag.Int("batch", 16, "max mediations per batch")
		queue     = flag.Int("queue", 1024, "submit-queue depth; full queue rejects arrivals")
		warmup    = flag.Duration("warmup", 2*time.Second, "warmup window discarded from the report")
		measure   = flag.Duration("measure", 10*time.Second, "steady-state measurement window")
		providers = flag.Int("providers", 0, "provider count override (0 = scaled default)")
		consumers = flag.Int("consumers", 0, "consumer count override (0 = scaled default)")
		seed      = flag.Uint64("seed", 42, "run seed")
		jsonPath  = flag.String("json", "", "also write the report as JSON to this file")
		tlPath    = flag.String("timeline", "", "stream interval timeline snapshots to this CSV file (watch with sqlb-top)")
		tlEvery   = flag.Duration("snapshot-interval", time.Second, "timeline snapshot cadence")
		top       = flag.Bool("top", false, "render the live sqlb-top dashboard while the run executes")
	)
	pop := runflags.BindPopulation(flag.CommandLine, 1)
	prof := runflags.BindProfile(flag.CommandLine)
	flag.Parse()

	strategy, err := allocator.Methods.New(*method, *seed)
	if err != nil {
		fatal("%v", err)
	}
	mcfg := pop.Config()
	if *providers > 0 {
		mcfg.Providers = *providers
	}
	if *consumers > 0 {
		mcfg.Consumers = *consumers
	}

	sink, err := timeline.Live(*tlPath, *top, 0)
	if err != nil {
		fatal("%v", err)
	}

	d, err := serving.NewDriver(serving.Config{
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
	})
	if err != nil {
		fatal("%v", err)
	}

	// Ctrl-C cuts the run short but still reports what was measured.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Fprintf(os.Stderr, "sqlb-serve: driving %.0f qps for %v (after %v warmup)...\n",
		*qps, *measure, *warmup)
	stopProfile, err := prof.Start()
	if err != nil {
		fatal("%v", err)
	}
	rep, err := d.Run(ctx)
	if perr := stopProfile(); perr != nil {
		fatal("%v", perr)
	}
	if sink != nil {
		tlErr := cmp.Or(d.TimelineErr(), sink.Close())
		if *top {
			fmt.Println()
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

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlb-serve: "+format+"\n", args...)
	os.Exit(1)
}
