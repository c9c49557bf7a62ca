package main

import (
	"runtime"
	"time"

	"sqlb"
	"sqlb/internal/core"
	"sqlb/internal/randx"
	querygen "sqlb/internal/workload"
)

// probeLayers produces the per-layer cost table of one trip through
// Algorithm 1 on the workload's population, from the benchmark's own side
// of each module's public functions: construction timings, the staged
// replay with its twin check, and the standalone kernels. It returns the
// mean host time of one Mediator.Allocate on that population, in µs, which
// the simulator's event-loop cost is derived from.
func probeLayers(o runOptions, r *result, tr *tracer) (allocateUS float64) {
	cfg := o.w.config()
	probeBuild(cfg, r)

	popA, popB := sqlb.NewPopulation(cfg, populationSeed), sqlb.NewPopulation(cfg, populationSeed)
	ixA, ixB := sqlb.BuildMatchIndex(popA), sqlb.BuildMatchIndex(popB)
	n := o.w.replay
	streamA, streamB := queryStream(popA, o.seed, n), queryStream(popB, o.seed, n)

	// The replay is checked, not trusted: the same stream through
	// Mediator.Allocate on the twin population must select the same
	// providers, query for query. The two take the stream in alternating
	// chunks, so that a slow spell of the host weighs on both alike and
	// their difference (mediator.glue_us) stays meaningful.
	const chunk = 1024
	rp := newReplay(popA, ixA, tr, n)
	med := sqlb.NewMediator(sqlb.NewSQLB())
	med.Match = ixB
	clock := newVirtualClock(popB)
	mismatches := 0
	var mallocs, bytes float64
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		rp.run(streamA[lo:hi], lo)
		m, b := memDelta(func() {
			for i := lo; i < hi; i++ {
				q := streamB[i]
				clock.advance(1)
				now := clock.now()
				start := tr.now()
				alloc, err := med.Allocate(now, q, popB)
				tr.add(spTwinAllocate, -1, uint32(i), start, tr.now())
				want := rp.selected[rp.offsets[i]:rp.offsets[i+1]]
				if err != nil {
					if len(want) != 0 {
						mismatches++
					}
					continue
				}
				same := len(alloc.Selected) == len(want) && validSelection(q, alloc)
				for k, idx := range alloc.Selected {
					p := alloc.Pq[idx]
					p.Assign(now, q.Units)
					same = same && k < len(want) && want[k] == int32(p.ID)
				}
				if !same {
					mismatches++
				}
			}
		})
		mallocs, bytes = mallocs+m, bytes+b
	}

	candidates, queries := float64(rp.candidates), float64(n)
	perQuery := func(name spanName) float64 { return float64(tr.total[name]) / queries }
	perCandidate := func(name spanName) float64 { return float64(tr.total[name]) / candidates }
	r.set("matchmaking.match_ns", perQuery(spMatch))
	r.set("matchmaking.pq_mean", candidates/queries)
	r.set("intention.consumer_ns_per_cand", perCandidate(spConsumerIntent))
	r.set("intention.provider_ns_per_cand", perCandidate(spProviderIntent))
	r.set("satisfaction.read_ns_per_cand", perCandidate(spSatRead))
	r.set("allocator.allocate_ns_per_cand", perCandidate(spAllocate))
	r.set("satisfaction.record_ns_per_cand", perCandidate(spRecord))
	r.set("model.assign_ns", float64(tr.total[spAssign])/float64(len(rp.selected)))
	stages := tr.total[spMatch] + tr.total[spConsumerIntent] + tr.total[spProviderIntent] +
		tr.total[spSatRead] + tr.total[spAllocate] + tr.total[spRecord]
	r.check("staged replay selects what Mediator.Allocate selects", mismatches == 0,
		"%d of %d queries differ", mismatches, n)
	r.Attempted += uint64(n)
	r.Failed += uint64(mismatches + rp.dropped)

	allocateUS = perQuery(spTwinAllocate) / 1e3
	r.set("mediator.allocate_us", allocateUS)
	r.set("mediator.glue_us", allocateUS-float64(stages)/queries/1e3)
	if !o.w.serving() {
		// The simulator's mediation entry point is Mediator.Allocate; the
		// serving workloads report their own entry point's allocations.
		r.set("mediator.allocs_per_query", mallocs/queries)
		r.set("mediator.bytes_per_query", bytes/queries)
	}

	probeKernels(o, r, rp)
	return allocateUS
}

// probeBuild times population and index construction and sizes the
// population on the heap.
func probeBuild(cfg sqlb.Config, r *result) {
	const reps = 5
	var popS, indexS, bytesPer []float64
	for i := 0; i < reps; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		pop := sqlb.NewPopulation(cfg, populationSeed)
		popS = append(popS, time.Since(start).Seconds())
		runtime.GC()
		runtime.ReadMemStats(&after)
		bytesPer = append(bytesPer,
			(float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(cfg.Consumers+cfg.Providers))
		start = time.Now()
		ix := sqlb.BuildMatchIndex(pop)
		indexS = append(indexS, time.Since(start).Seconds())
		runtime.KeepAlive(ix)
	}
	r.set("model.build_s", popS...)
	r.set("matchmaking.build_s", indexS...)
	r.set("model.bytes_per_participant", bytesPer...)
}

// replay takes a query stream through Algorithm 1 composed from public
// calls — matchmaking, consumer intentions, provider intentions,
// satisfaction reads, the strategy, result notification, assignment — with
// one child span per stage under one span per query.
type replay struct {
	pop      *sqlb.Population
	ix       *sqlb.MatchIndex
	tr       *tracer
	clock    *virtualClock
	strategy sqlb.Allocator
	scratch  core.Scratch
	req      sqlb.AllocationRequest
	// ci, pi, provSat are the per-query vectors, indexed like Pq.
	ci, pi, provSat []float64

	// selected[offsets[i]:offsets[i+1]] are the provider IDs query i was
	// allocated to, best first: what the twin must reproduce.
	selected   []int32
	offsets    []int32
	candidates int64
	dropped    int
	// scorePI, scoreCI, scoreOmega are (provider intention, consumer
	// intention, ω) triples captured for the Definition 9 kernel probe.
	scorePI, scoreCI, scoreOmega []float64
}

func newReplay(pop *sqlb.Population, ix *sqlb.MatchIndex, tr *tracer, queries int) *replay {
	return &replay{
		pop: pop, ix: ix, tr: tr, clock: newVirtualClock(pop), strategy: sqlb.NewSQLB(),
		offsets: make([]int32, 1, queries+1),
	}
}

// run replays the next queries of the stream; first is the position of
// queries[0] in it.
func (rp *replay) run(queries []*sqlb.Query, first int) {
	const captured = 1 << 16
	tr, pop := rp.tr, rp.pop
	ci, pi, provSat := rp.ci, rp.pi, rp.provSat
	for i, q := range queries {
		rp.clock.advance(1)
		now := rp.clock.now()
		c, qid := q.Consumer, uint32(first+i)

		id := tr.open(spQuery, qid)
		t0 := tr.now()
		pq := rp.ix.Match(q, pop)
		t1 := tr.now()
		tr.add(spMatch, id, qid, t0, t1)
		if len(pq) == 0 {
			tr.close(id, spQuery, t0, t1)
			rp.dropped++
			rp.offsets = append(rp.offsets, int32(len(rp.selected)))
			continue
		}
		if cap(ci) < len(pq) {
			ci, pi, provSat = make([]float64, len(pq)), make([]float64, len(pq)), make([]float64, len(pq))
		}
		ci, pi, provSat = ci[:len(pq)], pi[:len(pq)], provSat[:len(pq)]

		for j, p := range pq {
			ci[j] = sqlb.ConsumerIntention(c.Preference(p, q.Class), p.Reputation, c.Upsilon, c.Epsilon)
		}
		t2 := tr.now()
		tr.add(spConsumerIntent, id, qid, t1, t2)

		for j, p := range pq {
			pi[j] = sqlb.ProviderIntention(p.Preference(q.Class), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
		}
		t3 := tr.now()
		tr.add(spProviderIntent, id, qid, t2, t3)

		for j, p := range pq {
			provSat[j] = p.Public.Satisfaction()
		}
		rp.req = sqlb.AllocationRequest{
			Query: q, Pq: pq, CI: ci, PI: pi,
			ConsumerSat: c.Tracker.Satisfaction(), ProviderSat: provSat,
			Now: now, Scratch: &rp.scratch,
		}
		t4 := tr.now()
		tr.add(spSatRead, id, qid, t3, t4)

		selected := rp.strategy.Allocate(&rp.req)
		t5 := tr.now()
		tr.add(spAllocate, id, qid, t4, t5)

		c.Tracker.RecordAllocation(ci, selected, q.N)
		for j, p := range pq {
			performed := false
			for _, idx := range selected {
				performed = performed || idx == j
			}
			p.Public.Record(pi[j], performed)
			p.Private.Record(p.Preference(q.Class), performed)
		}
		t6 := tr.now()
		tr.add(spRecord, id, qid, t5, t6)

		for _, idx := range selected {
			pq[idx].Assign(now, q.Units)
			rp.selected = append(rp.selected, int32(pq[idx].ID))
		}
		t7 := tr.now()
		tr.add(spAssign, id, qid, t6, t7)
		tr.close(id, spQuery, t0, t7)

		rp.offsets = append(rp.offsets, int32(len(rp.selected)))
		rp.candidates += int64(len(pq))
		if len(rp.scorePI) < captured {
			for j := range pq {
				rp.scorePI = append(rp.scorePI, pi[j])
				rp.scoreCI = append(rp.scoreCI, ci[j])
				rp.scoreOmega = append(rp.scoreOmega, sqlb.Omega(rp.req.ConsumerSat, provSat[j]))
			}
		}
	}
	rp.ci, rp.pi, rp.provSat = ci, pi, provSat
}

// scoreSink keeps the compiler from discarding the kernel probe's calls.
var scoreSink float64

// probeKernels times the kernels the replay cannot isolate: Definition 9
// on the vectors the replay captured, index maintenance under churn, and
// the query generator.
func probeKernels(o runOptions, r *result, rp *replay) {
	pop, ix := rp.pop, rp.ix
	calls := 50 * min(o.w.replay, 40000)
	start := time.Now()
	for i := 0; i < calls; i++ {
		j := i % len(rp.scorePI)
		scoreSink += sqlb.Score(rp.scorePI[j], rp.scoreCI[j], rp.scoreOmega[j], 0)
	}
	r.set("core.score_ns", float64(time.Since(start).Nanoseconds())/float64(calls))

	// Remove + Add of one provider, in a seeded random order, on the
	// index the replay just used.
	pairs := max(o.w.replay/10, len(pop.Providers))
	order := randx.New(o.seed ^ streamSalt).Perm(len(pop.Providers))
	start = time.Now()
	for i := 0; i < pairs; i++ {
		p := pop.Providers[order[i%len(order)]]
		ix.Remove(p)
		ix.Add(p)
	}
	r.set("matchmaking.churn_ns", float64(time.Since(start).Nanoseconds())/float64(pairs))

	cfg := pop.Config
	gen := querygen.NewGenerator(cfg.QueryClasses, cfg.QueryN, randx.New(o.seed))
	gen.SetClassWeights(cfg.ClassWeights())
	mints := 10 * o.w.replay
	start = time.Now()
	for i := 0; i < mints; i++ {
		gen.Next(0, pop.Consumers[i%len(pop.Consumers)])
	}
	r.set("workload.next_ns", float64(time.Since(start).Nanoseconds())/float64(mints))
}
