package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"sqlb"
	"sqlb/internal/scenario"
	"sqlb/internal/timeline"
)

// minSimReps is the least number of timed simulator repetitions, however
// short the measuring time.
const minSimReps = 3

// simRun is one NewSimulation + Run.
type simRun struct {
	result     *sqlb.SimResult
	newS, runS float64
	digest     string
	// intervalsMs are the host times between consecutive timeline rows:
	// what advancing the simulation by one sample interval costs.
	intervalsMs []float64
	rows        int
	appendNs    float64
	candidates  int64
	// mallocs and bytes are the heap allocations made inside Run.
	mallocs, bytes float64
	err            error
}

func (s *simRun) hostUSPerQuery() float64 { return s.runS * 1e6 / float64(s.result.IssuedQueries) }

// simOptions are the workload's simulation options: SQLB at the reference
// load over captive participants, sampled every sample interval into sink.
func simOptions(o runOptions, duration float64, strategy sqlb.Allocator, sink timeline.Sink) (sqlb.SimOptions, error) {
	opts := sqlb.SimOptions{
		Config: o.w.config(), Strategy: strategy, Workload: sqlb.ConstantWorkload(load),
		Duration: duration, Seed: o.seed, SampleInterval: o.w.sampleInterval, Timeline: sink,
	}
	if o.w.scenario != "" {
		scn, ok := scenario.Preset(o.w.scenario)
		if !ok {
			return opts, fmt.Errorf("no scenario preset %q", o.w.scenario)
		}
		opts.Scenario = scn
	}
	return opts, nil
}

// simulate builds and runs the workload's simulation over the given
// horizon. The timeline goes through the streaming CSV encoder into
// io.Discard; the sink wrapper around it is the harness's clock for the
// host time between rows. A non-nil tracer adds the in-situ decorators.
func simulate(o runOptions, duration float64, tr *tracer) simRun {
	var strategy sqlb.Allocator = sqlb.NewSQLB()
	var alloc *tracedAllocator
	if tr != nil {
		alloc = &tracedAllocator{inner: strategy, tr: tr}
		strategy = alloc
	}
	sink := &timedSink{inner: timeline.NewCSVSink(io.Discard), tr: tr}
	opts, err := simOptions(o, duration, strategy, sink)
	if err != nil {
		return simRun{err: err}
	}
	start := time.Now()
	engine, err := sqlb.NewSimulation(opts)
	if err != nil {
		return simRun{err: err}
	}
	out := simRun{newS: time.Since(start).Seconds()}

	var id int32 = -1
	var t0 int64
	out.mallocs, out.bytes = memDelta(func() {
		sink.t0 = time.Now()
		if tr != nil {
			id = tr.open(spRun, 0)
			tr.cur = id
			t0 = tr.now()
		}
		out.result = engine.Run()
		out.runS = time.Since(sink.t0).Seconds()
	})
	if tr != nil {
		tr.cur = -1
		tr.close(id, spRun, t0, t0+int64(out.runS*1e9))
		out.candidates = alloc.candidates
	}
	if err := sink.Close(); err != nil {
		out.err = err
	} else {
		out.err = engine.TimelineErr()
	}

	// The last row is the final state, written right after the last
	// sample; it closes no interval.
	prev := int64(0)
	for _, stamp := range sink.stamps[:len(sink.stamps)-1] {
		out.intervalsMs = append(out.intervalsMs, float64(stamp-prev)/1e6)
		prev = stamp
	}
	out.rows = len(sink.stamps)
	out.appendNs = float64(sink.busy) / float64(out.rows)
	out.digest = digestResult(out.result)
	return out
}

// digestResult hashes everything a run produced: every sample, the final
// state, the counters, the churn ledgers, and the response-time
// distribution. %v prints floats in the shortest form that round-trips,
// so equal digests mean equal bits.
func digestResult(res *sqlb.SimResult) string {
	flat := *res
	flat.ResponseHistogram, flat.Err = nil, nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%v|%v|%v|%v", flat, res.Err,
		res.ResponseHistogram.Quantile(0.5), res.ResponseHistogram.Quantile(0.95), res.ResponseHistogram.Quantile(0.99))
	return hex.EncodeToString(h.Sum(nil))
}

// checkSim applies the simulator's output checks to one run.
func checkSim(r *result, phase string, rep int, run *simRun) {
	if run.err != nil {
		r.check("simulation runs", false, "%s rep %d: %v", phase, rep, run.err)
		return
	}
	res := run.result
	r.check("sim ledger: issued = completed + dropped + in flight at end",
		res.IssuedQueries == res.CompletedQueries+res.DroppedQueries+uint64(res.InFlightAtEnd),
		"%s rep %d: %d != %d + %d + %d", phase, rep, res.IssuedQueries, res.CompletedQueries, res.DroppedQueries, res.InFlightAtEnd)
	r.check("sim Result.Err is nil", res.Err == nil, "%s rep %d: %v", phase, rep, res.Err)
	if r.Digest == "" {
		r.Digest = run.digest
	}
	r.check("sim Result digest repeats across repetitions", run.digest == r.Digest, "%s rep %d: %s", phase, rep, run.digest)
	r.Attempted += res.IssuedQueries
	r.Failed += res.DroppedQueries
	if res.Err != nil {
		r.Failed++
	}
}

// simUntraced measures a simulator workload's end-to-end metrics: set-up
// (NewSimulation), host time per simulated query, host time per timeline
// interval, and the simulated statistics that must not move.
func simUntraced(o runOptions, r *result) {
	// Set-up is timed on simulations that are built and dropped, and again
	// on every simulation that is run.
	var setups []float64
	for i := 0; i < setupReps/3; i++ {
		runtime.GC()
		opts, err := simOptions(o, o.w.duration, sqlb.NewSQLB(), timeline.NewCSVSink(io.Discard))
		start := time.Now()
		if err == nil {
			_, err = sqlb.NewSimulation(opts)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			r.check("simulation builds", false, "%v", err)
			return
		}
	}

	runtime.GC()
	start := time.Now()
	warm := simulate(o, o.w.warmDuration, nil)
	r.Extra["harness.warm_s"] = time.Since(start).Seconds()
	if warm.err != nil {
		r.check("simulation runs", false, "warm-up: %v", warm.err)
		return
	}
	setups = append(setups, warm.newS)

	var capacity, hostUS, p50 []float64
	var last simRun
	// Repetitions fill the measuring time: another one starts while it is
	// expected to end inside it.
	budget, begin := o.share(1), time.Now()
	for rep := 0; rep < minSimReps || time.Since(begin)*time.Duration(rep+1)/time.Duration(rep) <= budget; rep++ {
		runtime.GC()
		run := simulate(o, o.w.duration, nil)
		checkSim(r, "timed", rep, &run)
		if run.err != nil {
			return
		}
		r.run("timed", rep, run.runS, int(run.result.IssuedQueries), false)
		setups = append(setups, run.newS)
		hostUS = append(hostUS, run.hostUSPerQuery())
		capacity = append(capacity, float64(run.result.IssuedQueries)/run.runS)
		p50 = append(p50, median(run.intervalsMs))
		last = run
	}
	r.set("setup_s", setups...)
	r.set("host_us_per_query", hostUS...)
	r.set("capacity_mps", capacity...)
	r.set("lat_p50_ms", p50...)
	r.set("sim_resp_mean_s", last.result.MeanResponseTime)
	r.set("sim_cons_allocsat", last.result.Final.ConsAllocSat.Mean)
	r.set("sim_prov_sat", last.result.Final.ProvSatPreference.Mean)
	setPeakRSS(r)
}

// simTraced produces the simulator layers' share of the per-layer table
// from one plain and one decorated run: the plain one gives the event
// loop's cost and allocations, the decorated one the allocator's and the
// timeline sink's share inside Engine.Run. What tracing costs is read off
// the two runs' median host time per timeline interval, which a stall
// during either run barely moves.
func simTraced(o runOptions, r *result, tr *tracer, allocateUS float64) {
	start := time.Now()
	warm := simulate(o, o.w.warmDuration, nil)
	r.set("harness.warm_s", time.Since(start).Seconds())
	if warm.err != nil {
		r.check("simulation runs", false, "warm-up: %v", warm.err)
		return
	}
	runtime.GC()
	plain := simulate(o, o.w.duration, nil)
	checkSim(r, "timed", 0, &plain)
	runtime.GC()
	traced := simulate(o, o.w.duration, tr)
	checkSim(r, "timed", 1, &traced)
	if plain.err != nil || traced.err != nil {
		return
	}
	queries := float64(plain.result.IssuedQueries)
	r.run("timed", 0, plain.runS, int(queries), false)
	r.run("timed", 1, traced.runS, int(queries), true)

	r.set("harness.trace_overhead_pct", 100*(median(traced.intervalsMs)/median(plain.intervalsMs)-1))
	insitu := float64(tr.total[spInsituAllocate])
	r.set("allocator.insitu_ns_per_cand", insitu/float64(traced.candidates))
	r.set("allocator.insitu_share", insitu/(traced.runS*1e9))
	r.set("sim.new_s", warm.newS, plain.newS, traced.newS)
	r.set("sim.allocs_per_query", plain.mallocs/queries)
	r.set("sim.bytes_per_query", plain.bytes/queries)
	r.set("sim.queries_per_run", queries)
	// Derived: what Engine.Run spends per query outside Mediator.Allocate —
	// event heap, in-flight map, generator, completions, sampling, churn.
	r.set("sim.loop_us_per_query", plain.hostUSPerQuery()-allocateUS)
	r.set("timeline.append_ns", traced.appendNs)
	r.set("timeline.rows", float64(traced.rows))
	r.set("scenario.churn_events", float64(len(plain.result.ProviderDepartures)+len(plain.result.ProviderJoins)))
	r.notMeasured("mediator.batch_us_per_query", "mediator.single_us", "mediator.batch_size_mean",
		"serving.driver_mps", "serving.driver_reject_share",
		"harness.late_p99_ms", "harness.late_max_ms", "harness.queue_wait_p50_ms", "harness.service_p50_ms",
		"harness.lat_p99_ms", "harness.knee_qps")
}
