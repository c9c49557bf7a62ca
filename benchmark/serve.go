package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"sort"
	"time"

	"sqlb"
	"sqlb/internal/mediator"
	"sqlb/internal/randx"
	"sqlb/internal/serving"
)

const (
	// streamLen is the length of the pre-generated cyclic query stream.
	streamLen = 1 << 16
	// queueDepth bounds the open-loop submit queue; a full queue rejects.
	// At the reference rates it holds a second or more of arrivals, so that
	// a stall of the host does not turn into refused requests.
	queueDepth = 4096
	// collectTimeout bounds Mediate's intention fan-out. It is far above
	// any stall of the host so that no answer ever falls back to the
	// default intention and the per-query path stays deterministic.
	collectTimeout = 5 * time.Second
	// viaMediate selects the per-query Mediate path of a closed loop.
	viaMediate = 0

	// setupReps is how many times a run repeats set-up.
	setupReps = 15
	// timedReps is the number of closed-loop and of open-loop repetitions
	// of an untraced serving run.
	timedReps = 5
	// kneeP50Ms is the latency limit of the saturation curve's knee: under
	// 1% of the 1.3 s a high-capacity provider needs to serve a query.
	kneeP50Ms     = 10.0
	kneeFailShare = 0.01
)

// server is one mediation service under test with the harness state
// around it: the virtual mediation clock and the cyclic query stream.
type server struct {
	w      workload
	pop    *sqlb.Population
	srv    *sqlb.MediationServer
	clock  *virtualClock
	stream []*sqlb.Query
	next   int
	// tr and alloc are set on a traced run's server only.
	tr    *tracer
	alloc *tracedAllocator
	// invalid counts mediations that errored, committed on partial
	// intentions, or selected anything but min(n, |Pq|) distinct
	// in-range providers.
	invalid int
}

// newServer builds the population, its capability index, and the
// mediation server, and reports how long that took: the serving
// workloads' set-up. A server that is going to mediate also needs its
// query stream (loadStream): generating it is the harness's input
// preparation, not set-up.
func newServer(w workload, cfg sqlb.Config, tr *tracer) (*server, float64) {
	start := time.Now()
	pop := sqlb.NewPopulation(cfg, populationSeed)
	s := &server{w: w, pop: pop, clock: newVirtualClock(pop), tr: tr}
	var strategy sqlb.Allocator = sqlb.NewSQLB()
	var match sqlb.Matchmaker = sqlb.BuildMatchIndex(pop)
	if tr != nil {
		s.alloc = &tracedAllocator{inner: strategy, tr: tr}
		strategy = s.alloc
		match = &tracedMatchmaker{inner: match, tr: tr}
	}
	s.srv = sqlb.NewMediationServer(strategy, pop, collectTimeout, s.clock.now)
	s.srv.SetMatchmaker(match)
	s.srv.SetApply(true)
	return s, time.Since(start).Seconds()
}

func (s *server) loadStream(seed uint64) { s.stream = queryStream(s.pop, seed, streamLen) }

// mainBatch is the closed-loop batch argument of the workload's own entry
// point; otherBatch that of the entry point it does not use.
func (s *server) mainBatch() int {
	if s.w.batch == 1 {
		return viaMediate
	}
	return s.w.batch
}

func (s *server) otherBatch() int {
	if s.w.batch == 1 {
		return 32
	}
	return viaMediate
}

// begin and end bracket a whole-call span on the traced server; the
// in-situ decorators hang their spans under it.
func (s *server) begin(name spanName, query uint32) (id int32, start int64) {
	if s.tr == nil || s.tr.off {
		return -1, 0
	}
	id = s.tr.open(name, query)
	s.tr.cur = id
	return id, s.tr.now()
}

func (s *server) end(id int32, name spanName, start int64) {
	if s.tr == nil || s.tr.off {
		return
	}
	s.tr.cur = -1
	s.tr.close(id, name, start, s.tr.now())
}

// account checks one mediation's outcome and hands a valid one to visit.
func (s *server) account(q *sqlb.Query, alloc *sqlb.Allocation, err error, visit func(*sqlb.Query, *sqlb.Allocation)) {
	if err != nil || alloc.Degraded() || !validSelection(q, alloc) {
		s.invalid++
		return
	}
	if visit != nil {
		visit(q, alloc)
	}
}

// closedLoop mediates from one caller, the next call issued when the
// previous one returned, until maxOps mediations or maxDur have passed
// (0 = no limit). batch > 0 sends that many queries per MediateBatch;
// viaMediate sends one query per Mediate.
func (s *server) closedLoop(batch, maxOps int, maxDur time.Duration, visit func(*sqlb.Query, *sqlb.Allocation)) (ops int, wall float64) {
	ctx := context.Background()
	start := time.Now()
	for (maxOps == 0 || ops < maxOps) && (maxDur == 0 || time.Since(start) < maxDur) {
		if batch == viaMediate {
			q := s.stream[s.next]
			s.next = (s.next + 1) % len(s.stream)
			s.clock.advance(1)
			id, t0 := s.begin(spSingle, uint32(q.ID))
			alloc, err := s.srv.Mediate(ctx, q)
			s.end(id, spSingle, t0)
			s.account(q, alloc, err, visit)
			ops++
			continue
		}
		if s.next+batch > len(s.stream) {
			s.next = 0
		}
		qs := s.stream[s.next : s.next+batch]
		s.next += batch
		s.clock.advance(batch)
		id, t0 := s.begin(spBatch, uint32(qs[0].ID))
		results := s.srv.MediateBatch(ctx, qs)
		s.end(id, spBatch, t0)
		for i, res := range results {
			s.account(qs[i], res.Alloc, res.Err, visit)
		}
		ops += batch
	}
	return ops, time.Since(start).Seconds()
}

// warmed is what the deterministic warm-up yields besides a warm server.
type warmed struct {
	wall   float64
	digest string
	// The serving workloads' quality statistics, all in virtual time and
	// exact for a seed: the mean response time of the warm-up's
	// assignments on the providers' FIFO queues, the consumers' mean
	// allocation satisfaction when it ends, and the providers' mean
	// preference-based satisfaction, averaged over readings taken each
	// time their windows have turned over (one reading rests on the one
	// or two queries a provider performed in its window, and is noisy).
	respMean, consAllocSat, provSat float64
}

// warmUp takes the server through the workload's warm-up count of
// mediations, which fills the satisfaction windows and the utilization
// windows. The phase is count-bounded on a virtual clock, so everything it
// produces repeats exactly for a seed: the digest over the selected
// provider IDs lets two commits be compared byte for byte.
func (s *server) warmUp() warmed {
	hash := sha256.New()
	busyUntil := make([]float64, len(s.pop.Providers))
	var respSum, provSatSum float64
	var assigned, mediated, readings int
	visit := func(q *sqlb.Query, alloc *sqlb.Allocation) {
		if mediated++; mediated%s.pop.Config.ProviderK == 0 {
			provSatSum += sqlb.Mean(s.pop.ProviderValues(true, func(p *sqlb.Provider) float64 {
				return p.Private.Satisfaction()
			}))
			readings++
		}
		now := s.clock.now()
		var id [4]byte
		for _, idx := range alloc.Selected {
			p := alloc.Pq[idx]
			binary.LittleEndian.PutUint32(id[:], uint32(p.ID))
			hash.Write(id[:])
			// The server discards Assign's completion time, so the
			// harness replays the FIFO arithmetic on its own ledger.
			done := math.Max(now, busyUntil[p.ID]) + q.Units/p.Capacity
			busyUntil[p.ID] = done
			respSum += done - now
			assigned++
		}
	}
	start := time.Now()
	s.closedLoop(s.w.batch, s.w.warm, 0, visit)
	if s.w.batch == 1 {
		// MediateBatch of one query reaches the same state as Mediate at a
		// fraction of the cost; a last stretch through Mediate itself warms
		// that path and puts its selections under the digest.
		s.closedLoop(viaMediate, s.w.warm/40, 0, visit)
	}
	out := warmed{wall: time.Since(start).Seconds(), digest: hex.EncodeToString(hash.Sum(nil))}
	out.respMean = respSum / float64(assigned)
	out.consAllocSat = sqlb.Mean(s.pop.ConsumerValues(true, func(c *sqlb.Consumer) float64 {
		// Clamped like the simulator's §4 sample (Definition 3 is unbounded).
		return math.Min(c.Tracker.AllocationSatisfaction(), 10)
	}))
	out.provSat = provSatSum / float64(readings)
	return out
}

// Outcomes of an open-loop request; every request ends in exactly one.
const (
	outcomePending uint8 = iota
	outcomeMediated
	outcomeRejected
	outcomeDropped
	outcomeError
)

// openRun is the measured window of one open-loop run.
type openRun struct {
	qps                                            float64
	submitted, mediated, rejected, dropped, errors int
	// Sorted samples in ms: latency from the due time, how far the idle
	// wait overshot a due time, due → dequeue, dequeue → return.
	latMs, lateMs, waitMs, serviceMs []float64
	calls, calledQueries             int
	measureS                         float64
}

func (o *openRun) failShare() float64 {
	return float64(o.rejected+o.dropped+o.errors) / float64(o.submitted)
}

func (o *openRun) ledgerHolds() bool {
	return o.submitted == o.mediated+o.rejected+o.dropped+o.errors
}

func (o *openRun) rung() rung {
	return rung{
		QPS: o.qps, AchievedMPS: float64(o.mediated) / o.measureS,
		P50Ms: quantile(o.latMs, 0.5), P90Ms: quantile(o.latMs, 0.9), P99Ms: quantile(o.latMs, 0.99),
		FailShare: o.failShare(), LateP99Ms: quantile(o.lateMs, 0.99), Samples: len(o.latMs),
	}
}

// openLoop offers the stream on a Poisson schedule at qps regardless of
// how fast mediations complete. Requests come due on the schedule, enter a
// bounded queue that rejects when full, and one worker greedily coalesces
// what is already queued into a batch. Latency runs from the due time, so a
// stall is charged to every request it delayed. Requests due during settle
// are served but not measured.
//
// Pacer and worker share this goroutine: between batches it admits, in due
// order, every request that came due in the meantime. Nothing leaves the
// queue while a batch runs, so the occupancy each arrival finds — and with
// it every rejection — is exactly what a concurrent pacer that is never
// late would produce, without a second busy thread, channel hand-offs, or
// the wake-up latency of an idle virtual CPU in the measured latency. The
// only lateness left is how far the idle wait overshoots a due time.
func (s *server) openLoop(qps float64, settle, measure time.Duration, seed uint64) openRun {
	rng := randx.New(seed)
	horizon := int64(settle + measure)
	var due []int64
	for t := rng.Exp(qps); int64(t*1e9) < horizon; t += rng.Exp(qps) {
		due = append(due, int64(t*1e9))
	}
	n := len(due)
	dequeued, done := make([]int64, n), make([]int64, n)
	outcome := make([]uint8, n)
	base := s.next
	s.next = (s.next + n) % len(s.stream)
	query := func(i int32) *sqlb.Query { return s.stream[(base+int(i))%len(s.stream)] }
	settled := func(q *sqlb.Query, alloc *sqlb.Allocation, err error) uint8 {
		switch {
		case errors.Is(err, mediator.ErrNoProviders):
			return outcomeDropped
		case err != nil || alloc.Degraded() || !validSelection(q, alloc):
			s.invalid++
			return outcomeError
		}
		return outcomeMediated
	}

	out := openRun{qps: qps, measureS: measure.Seconds()}
	ctx := context.Background()
	var queue [queueDepth]int32 // ring: queued requests are queue[head%queueDepth ...]
	head, queued, next := 0, 0, 0
	qs := make([]*sqlb.Query, 0, s.w.batch)
	var traceBase int64
	if s.tr != nil {
		traceBase = s.tr.now()
	}
	start := time.Now()
	for next < n || queued > 0 {
		now := int64(time.Since(start))
		for ; next < n && due[next] <= now; next++ {
			if queued == queueDepth {
				outcome[next] = outcomeRejected
				continue
			}
			queue[(head+queued)%queueDepth] = int32(next)
			queued++
		}
		if queued == 0 {
			// Idle: spin to the next due time. Sleeping would be kinder to
			// the host, but waking from it costs a varying share of a
			// millisecond that would be charged to the next request.
			wait := due[next]
			for now < wait {
				now = int64(time.Since(start))
			}
			if wait >= int64(settle) {
				out.lateMs = append(out.lateMs, float64(now-wait)/1e6)
			}
			continue
		}

		take := min(queued, s.w.batch)
		first := queue[head%queueDepth]
		at := int64(time.Since(start))
		s.clock.advance(take)
		out.calls++
		out.calledQueries += take
		if s.w.batch == 1 {
			q := query(first)
			id, t0 := s.begin(spSingle, uint32(q.ID))
			alloc, err := s.srv.Mediate(ctx, q)
			s.end(id, spSingle, t0)
			dequeued[first], done[first] = at, int64(time.Since(start))
			outcome[first] = settled(q, alloc, err)
		} else {
			qs = qs[:0]
			for k := 0; k < take; k++ {
				qs = append(qs, query(queue[(head+k)%queueDepth]))
			}
			id, t0 := s.begin(spBatch, uint32(qs[0].ID))
			results := s.srv.MediateBatch(ctx, qs)
			s.end(id, spBatch, t0)
			finished := int64(time.Since(start))
			for k, res := range results {
				i := queue[(head+k)%queueDepth]
				dequeued[i], done[i] = at, finished
				outcome[i] = settled(qs[k], res.Alloc, res.Err)
			}
		}
		head, queued = (head+take)%queueDepth, queued-take
	}

	const ms = 1e6
	for i, d := range due {
		if d < int64(settle) {
			continue
		}
		out.submitted++
		switch outcome[i] {
		case outcomeMediated:
			out.mediated++
			out.latMs = append(out.latMs, float64(done[i]-d)/ms)
			out.waitMs = append(out.waitMs, float64(dequeued[i]-d)/ms)
			out.serviceMs = append(out.serviceMs, float64(done[i]-dequeued[i])/ms)
			if s.tr != nil && !s.tr.off {
				s.tr.add(spQueueWait, -1, uint32(i), traceBase+d, traceBase+dequeued[i])
				s.tr.add(spService, -1, uint32(i), traceBase+dequeued[i], traceBase+done[i])
			}
		case outcomeRejected:
			out.rejected++
		case outcomeDropped:
			out.dropped++
		case outcomeError:
			out.errors++
		}
	}
	for _, samples := range [][]float64{out.latMs, out.lateMs, out.waitMs, out.serviceMs} {
		sort.Float64s(samples)
	}
	return out
}

// recordOpen books one open-loop run into the result: its run record, its
// ledger check, and — when it counts against the workload — its refused
// requests (invalid mediations are counted once, through server.invalid).
func recordOpen(r *result, phase string, rep int, run *openRun, traced, counted bool) {
	rec := r.run(phase, rep, run.measureS, run.submitted, traced)
	rec.P99Ms = quantile(run.latMs, 0.99)
	if len(run.lateMs) > 0 {
		rec.LateMaxMs = run.lateMs[len(run.lateMs)-1]
	}
	r.check("open-loop ledger: submitted = mediated + rejected + dropped + errors", run.ledgerHolds(),
		"%s rep %d: %d != %d + %d + %d + %d", phase, rep, run.submitted, run.mediated, run.rejected, run.dropped, run.errors)
	if counted {
		r.Attempted += uint64(run.submitted)
		r.Failed += uint64(run.rejected + run.dropped)
	}
}

// share turns a share of the run's measuring time into a duration.
func (o runOptions) share(f float64) time.Duration {
	return time.Duration(f * o.seconds * float64(time.Second))
}

// serveUntraced measures a serving workload's end-to-end metrics: set-up,
// closed-loop capacity, and the median latency at the reference rate.
func serveUntraced(o runOptions, r *result) {
	cfg := o.w.config()
	// Set-up is repeated back to back on a collected heap, before anything
	// else allocates: each repetition then reuses the pages of the one
	// before, and the resident set's high-water mark stays that of one
	// server plus the run.
	var s *server
	setups := make([]float64, setupReps)
	for i := range setups {
		s = nil
		runtime.GC()
		s, setups[i] = newServer(o.w, cfg, nil)
	}
	r.set("setup_s", setups...)
	s.loadStream(o.seed)

	warm := s.warmUp()
	r.Digest = warm.digest
	r.Extra["harness.warm_s"] = warm.wall
	r.set("sim_resp_mean_s", warm.respMean)
	r.set("sim_cons_allocsat", warm.consAllocSat)
	r.set("sim_prov_sat", warm.provSat)

	// Half of the measuring time goes to capacity (closed loop: one caller,
	// full batches), half to latency at the reference rate (open loop, a
	// tenth of each repetition spent settling). The repetitions of the two
	// alternate, so a stall of the host that lasts seconds spoils a
	// minority of each metric's repetitions instead of most of one's.
	var capacity, hostUS, p50 []float64
	window := o.share(0.5 / timedReps)
	for rep := 0; rep < timedReps; rep++ {
		runtime.GC()
		ops, wall := s.closedLoop(s.mainBatch(), 0, window, nil)
		capacity, hostUS = append(capacity, float64(ops)/wall), append(hostUS, wall/float64(ops)*1e6)
		r.run("capacity", rep, wall, ops, false)
		r.Attempted += uint64(ops)

		runtime.GC()
		run := s.openLoop(o.w.ref, window/10, window-window/10, o.seed+uint64(rep))
		p50 = append(p50, quantile(run.latMs, 0.5))
		recordOpen(r, "latency", rep, &run, false, true)
	}
	r.set("capacity_mps", capacity...)
	r.set("host_us_per_query", hostUS...)
	r.set("lat_p50_ms", p50...)

	r.Failed += uint64(s.invalid)
	r.check("every mediation selects min(n, |Pq|) distinct in-range providers", s.invalid == 0, "%d did not", s.invalid)
	setPeakRSS(r)
}

func setPeakRSS(r *result) {
	rss, err := peakRSSMB()
	r.check("peak RSS readable", err == nil, "%v", err)
	r.set("peak_rss_mb", rss)
}

// serveTraced produces the serving layers' share of the per-layer table:
// the in-situ decorators inside the closed loop, the cost of tracing, the
// entry point the workload does not use, the saturation curve, and the
// repository's own serving driver under overload.
func serveTraced(o runOptions, r *result, tr *tracer) {
	cfg := o.w.config()
	s, _ := newServer(o.w, cfg, tr)
	s.loadStream(o.seed)
	tr.off = true
	warm := s.warmUp()
	r.Digest = warm.digest
	r.set("harness.warm_s", warm.wall)

	// Closed loop with the decorators passing through, then recording,
	// in turns; the difference is what tracing costs.
	runtime.GC()
	const turns = 5
	var plainMPS, tracedMPS []float64
	var mallocs, bytes, plainOps float64
	tracedOps, tracedWall := 0, 0.0
	entry, other := spBatch, spSingle
	if o.w.batch == 1 {
		entry, other = spSingle, spBatch
	}
	for rep := 0; rep < turns; rep++ {
		var ops int
		var wall float64
		tr.off = true
		m, b := memDelta(func() { ops, wall = s.closedLoop(s.mainBatch(), 0, o.share(0.02), nil) })
		plainMPS = append(plainMPS, float64(ops)/wall)
		mallocs, bytes, plainOps = mallocs+m, bytes+b, plainOps+float64(ops)
		r.run("capacity", rep, wall, ops, false)
		tr.off = false
		ops, wall = s.closedLoop(s.mainBatch(), 0, o.share(0.02), nil)
		tracedMPS = append(tracedMPS, float64(ops)/wall)
		tracedOps, tracedWall = tracedOps+ops, tracedWall+wall
		r.run("capacity", rep, wall, ops, true)
		r.Attempted += uint64(ops)
	}
	r.set("harness.trace_overhead_pct", 100*(1-median(tracedMPS)/median(plainMPS)))
	r.set("mediator.allocs_per_query", mallocs/plainOps)
	r.set("mediator.bytes_per_query", bytes/plainOps)
	// Nothing but those turns has recorded in-situ spans so far.
	insitu := float64(tr.total[spInsituAllocate])
	r.set("allocator.insitu_ns_per_cand", insitu/float64(s.alloc.candidates))
	r.set("allocator.insitu_share", insitu/(tracedWall*1e9))
	mainUS := float64(tr.total[entry]) / float64(tracedOps) / 1e3

	// The entry point this workload does not use, briefly, on the same
	// server: both costs are read on every population.
	ops, wall := s.closedLoop(s.otherBatch(), 0, o.share(0.025), nil)
	r.run("other-entry", 0, wall, ops, true)
	otherUS := float64(tr.total[other]) / float64(ops) / 1e3
	if o.w.batch == 1 {
		r.set("mediator.single_us", mainUS)
		r.set("mediator.batch_us_per_query", otherUS)
	} else {
		r.set("mediator.batch_us_per_query", mainUS)
		r.set("mediator.single_us", otherUS)
	}

	// The saturation curve. Only the reference rung records spans (they
	// split its latency into queue wait and service) and counts against
	// the workload: the rungs past the knee reject by design.
	knee := 0.0
	for i, qps := range o.w.rungs {
		window := o.share(0.08)
		isRef := qps == o.w.ref
		tr.off = !isRef
		run := s.openLoop(qps, window/10, window-window/10, o.seed+uint64(i))
		recordOpen(r, "curve", i, &run, isRef, isRef)
		point := run.rung()
		r.Curve = append(r.Curve, point)
		if point.P50Ms <= kneeP50Ms && point.FailShare <= kneeFailShare && qps > knee {
			knee = qps
		}
		if isRef {
			r.set("harness.lat_p99_ms", point.P99Ms)
			r.set("harness.late_p99_ms", point.LateP99Ms)
			r.set("harness.late_max_ms", run.lateMs[len(run.lateMs)-1])
			r.set("harness.queue_wait_p50_ms", quantile(run.waitMs, 0.5))
			r.set("harness.service_p50_ms", quantile(run.serviceMs, 0.5))
			r.set("mediator.batch_size_mean", float64(run.calledQueries)/float64(run.calls))
		}
	}
	r.set("harness.knee_qps", knee)

	r.Failed += uint64(s.invalid)
	r.check("every mediation selects min(n, |Pq|) distinct in-range providers", s.invalid == 0, "%d did not", s.invalid)

	probeDriver(o, r, cfg)
	r.notMeasured("sim.new_s", "sim.loop_us_per_query", "sim.allocs_per_query", "sim.bytes_per_query",
		"sim.queries_per_run", "timeline.append_ns", "timeline.rows", "scenario.churn_events")
}

// probeDriver runs the repository's own serving.Driver once under
// overload; its sustained rate against capacity_mps is what the driver's
// queue, coalescing, and accounting cost.
func probeDriver(o runOptions, r *result, cfg sqlb.Config) {
	d, err := serving.NewDriver(serving.Config{
		Model: cfg, Strategy: sqlb.NewSQLB(), TargetQPS: o.w.driverQPS,
		Workers: 1, Batch: o.w.batch, QueueDepth: queueDepth,
		Warmup: o.share(0.02), Measure: o.share(0.08),
		CollectTimeout: collectTimeout, Seed: o.seed,
	})
	var rep *serving.Report
	if err == nil {
		rep, err = d.Run(context.Background())
	}
	r.check("serving.Driver run", err == nil, "%v", err)
	if err != nil {
		return
	}
	r.run("driver", 0, rep.MeasureSeconds, int(rep.Submitted), false)
	r.check("serving.Driver ledger", rep.Submitted == rep.Mediated+rep.Rejected+rep.Dropped+rep.Errors,
		"%d != %d + %d + %d + %d", rep.Submitted, rep.Mediated, rep.Rejected, rep.Dropped, rep.Errors)
	r.set("serving.driver_mps", rep.MediationsPerSec)
	r.set("serving.driver_reject_share", float64(rep.Rejected)/float64(rep.Submitted))
}
