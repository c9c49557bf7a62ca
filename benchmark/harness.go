package main

import (
	"fmt"
	"os"
	"runtime"

	"sqlb"
	"sqlb/internal/randx"
	querygen "sqlb/internal/workload"
)

// runOptions is one invocation: a workload in one mode.
type runOptions struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	// traceOut, when set on a traced run, receives the span buffer as
	// JSONL after the run.
	traceOut string
}

// runWorkload runs one workload in one mode in this process and returns
// its checked result.
func runWorkload(o runOptions, spec *benchSpec) (*result, error) {
	// The environment must not change the measured path: SQLB_SHARDS
	// would switch the simulator to the sharded engine.
	if err := os.Unsetenv("SQLB_SHARDS"); err != nil {
		return nil, err
	}
	if o.smoke {
		o.w = o.w.smoke()
	}
	r := newResult(o, spec)
	switch {
	case o.trace:
		tr := newTracer(8*o.w.replay + 1<<19)
		allocateUS := probeLayers(o, r, tr)
		if o.w.serving() {
			serveTraced(o, r, tr)
		} else {
			simTraced(o, r, tr, allocateUS)
		}
		r.Extra["trace.spans"] = float64(len(tr.spans))
		r.Extra["trace.spans_dropped"] = float64(tr.dropped)
		for name, total := range tr.total {
			r.Extra["span_total_ms."+spanNames[name]] = float64(total) / 1e6
		}
		if o.traceOut != "" {
			if err := tr.writeJSONL(o.traceOut); err != nil {
				return nil, fmt.Errorf("trace-out: %w", err)
			}
		}
	case o.w.serving():
		serveUntraced(o, r)
	default:
		simUntraced(o, r)
	}
	r.finish()
	return r, nil
}

// populationSeed draws every population the harness builds itself. The
// population is the workload's dataset, the same on every run; -seed drives
// the traffic on it — query streams and arrival schedules — so that runs on
// different seeds differ in their inputs but not in how much work one
// mediation is. (The simulator has one seed for everything it draws, its
// population included, and gets -seed.)
const populationSeed = 2007

// streamSalt keeps the harness's streams apart from the draws a simulator
// makes from the same -seed.
const streamSalt = 0x51b5eed

// queryStream pre-generates n queries of the workload's stream, bound to
// the consumers of pop: the class mix through workload.Generator, the
// issuing consumer picked uniformly. The same seed on a twin population
// gives the same stream query for query.
func queryStream(pop *sqlb.Population, seed uint64, n int) []*sqlb.Query {
	master := randx.New(seed ^ streamSalt)
	genRng, pickRng := master.Split(), master.Split()
	cfg := pop.Config
	gen := querygen.NewGenerator(cfg.QueryClasses, cfg.QueryN, genRng)
	gen.SetClassWeights(cfg.ClassWeights())
	qs := make([]*sqlb.Query, n)
	for i := range qs {
		qs[i] = gen.Next(0, pop.Consumers[pickRng.Pick(len(pop.Consumers))])
	}
	return qs
}

// virtualClock is the mediation clock of everything mediated outside the
// simulator. It advances by the mean service demand of a query at the
// reference load, so provider utilization sits at 80% however fast the
// host mediates, state stays stationary, and a closed loop is
// reproducible bit for bit.
type virtualClock struct {
	t, dt float64
}

func newVirtualClock(pop *sqlb.Population) *virtualClock {
	cfg := pop.Config
	return &virtualClock{dt: cfg.MeanQueryUnitsWeighted() * float64(cfg.QueryN) / (load * pop.TotalCapacity())}
}

func (c *virtualClock) now() float64 { return c.t }

func (c *virtualClock) advance(queries int) { c.t += float64(queries) * c.dt }

// validSelection reports whether a mediation selected min(n, |Pq|)
// distinct in-range providers.
func validSelection(q *sqlb.Query, alloc *sqlb.Allocation) bool {
	want := max(q.N, 1)
	if want > len(alloc.Pq) {
		want = len(alloc.Pq)
	}
	if len(alloc.Selected) != want {
		return false
	}
	for i, idx := range alloc.Selected {
		if idx < 0 || idx >= len(alloc.Pq) {
			return false
		}
		for _, prev := range alloc.Selected[:i] {
			if prev == idx {
				return false
			}
		}
	}
	return true
}

// memDelta reads the allocation counters around fn.
func memDelta(fn func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}
