// Package serving drives the mediator as a long-lived service — the
// production counterpart of Figure 1 that the discrete-event simulator
// abstracts away. It supplies the open-loop load driver of the ROADMAP's
// mediator-as-a-service item: queries arrive on a Poisson schedule at a
// target QPS regardless of how fast mediations complete (so a saturated
// mediator falls behind instead of silently slowing the workload), a
// bounded submit queue applies admission control with a typed ErrOverloaded
// rejection, a worker pool mediates the admitted arrivals in batches
// (mediator.Server.MediateBatch amortizes matchmaking and the intention
// vectors per batch), and a warmup/measure phase split yields a
// steady-state report: mediations/sec and p50/p95/p99 mediation latency
// from stats.Histogram, plus the rejection, drop, and error counts that the
// serving-accounting bugfixes made trustworthy.
package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/matchmaking"
	"sqlb/internal/mediator"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/stats"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

// ErrOverloaded is the admission-control rejection: the submit queue is
// full because mediation throughput cannot keep up with the arrival rate
// (providers or the mediator itself are saturated). Open-loop clients see
// it immediately instead of queueing without bound.
var ErrOverloaded = errors.New("serving: submit queue full, mediation cannot keep up with arrivals")

// Config configures one serving run.
type Config struct {
	// Model builds the population the server mediates over.
	Model model.Config
	// Strategy is the allocation method under load.
	Strategy allocator.Allocator
	// TargetQPS is the open-loop arrival rate (queries/second).
	TargetQPS float64
	// Workers is the mediation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Batch is the maximum mediations per batch (0 = 16).
	Batch int
	// QueueDepth bounds the submit queue (0 = 1024); arrivals that find it
	// full are rejected with ErrOverloaded.
	QueueDepth int
	// Warmup is discarded from the report; Measure is the steady-state
	// observation window.
	Warmup  time.Duration
	Measure time.Duration
	// CollectTimeout is ignored — no mediation path waits on a participant
	// any more — and stays only because the frozen benchmark/ sets it.
	CollectTimeout time.Duration
	// Seed derives the population, workload, and arrival randomness.
	Seed uint64
	// Timeline, when non-nil, receives one timeline.Snapshot per
	// SnapshotInterval during the run plus a final one after the worker
	// pool drains, with measured-phase interval deltas that sum exactly to
	// the Report totals. The driver does not close the sink; the first
	// Append error surfaces via Driver.TimelineErr.
	Timeline timeline.Sink
	// SnapshotInterval is the timeline snapshot cadence (0 = 1s). Ignored
	// without a Timeline sink.
	SnapshotInterval time.Duration
}

func (c *Config) withDefaults() error {
	if c.Strategy == nil {
		return errors.New("serving: config needs a strategy")
	}
	if c.TargetQPS <= 0 {
		return errors.New("serving: target QPS must be positive")
	}
	if c.Measure <= 0 {
		return errors.New("serving: measure window must be positive")
	}
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = time.Second
	}
	return nil
}

// submission is one admitted arrival: the minted query plus the open-loop
// schedule slot it was due at. Latency is measured from the scheduled
// arrival, not the submit instant, so queue delay under overload is not
// hidden (the coordinated-omission trap).
type submission struct {
	q         *model.Query
	scheduled time.Time
	measured  bool
}

// Driver owns one serving run: the population, the mediation server, and
// the bounded submit queue.
type Driver struct {
	cfg   Config
	pop   *model.Population
	srv   *mediator.Server
	gen   *workload.Generator
	arr   *randx.Rand
	queue chan *submission
	// tl mirrors the measured-phase accounting into timeline snapshots;
	// nil when Config.Timeline is unset (the default hot path then touches
	// no atomics).
	tl *timelineRecorder
}

// NewDriver builds the population from the config seed, wires a mediation
// server over it (indexed matchmaking, allocations applied to provider
// queues so Definition 8's load term reacts to the mediated traffic), and
// allocates the bounded submit queue.
func NewDriver(cfg Config) (*Driver, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	master := randx.New(cfg.Seed)
	popRng := master.Split()
	genRng := master.Split()
	arrRng := master.Split()
	pop := model.NewPopulation(cfg.Model, popRng, 0)
	gen := workload.NewGenerator(cfg.Model.QueryClasses, cfg.Model.QueryN, genRng)
	gen.SetClassWeights(cfg.Model.ClassWeights())
	srv := mediator.NewServer(cfg.Strategy, pop, 0, nil)
	srv.SetMatchmaker(matchmaking.BuildIndex(pop))
	srv.SetApply(true)
	d := &Driver{
		cfg:   cfg,
		pop:   pop,
		srv:   srv,
		gen:   gen,
		arr:   arrRng,
		queue: make(chan *submission, cfg.QueueDepth),
	}
	if cfg.Timeline != nil {
		d.tl = newTimelineRecorder(cfg.Timeline, cfg.SnapshotInterval)
	}
	return d, nil
}

// Population exposes the driver's population (read-only; reports and tests).
func (d *Driver) Population() *model.Population { return d.pop }

// Submit offers one externally minted query to the submit queue — the
// admission-control edge. It never blocks: a full queue rejects with
// ErrOverloaded. Run's arrival loop uses the same path for its own
// schedule; tests use Submit directly to observe backpressure.
func (d *Driver) Submit(q *model.Query) error {
	return d.offer(&submission{q: q, scheduled: time.Now()})
}

func (d *Driver) offer(sub *submission) error {
	select {
	case d.queue <- sub:
		return nil
	default:
		return ErrOverloaded
	}
}

// workerStats is one worker's private slice of the accounting; merged after
// the pool drains so no counter needs atomics on the hot path.
type workerStats struct {
	hist     *stats.Histogram
	mediated uint64
	dropped  uint64
	errs     uint64
	firstErr error
	lastDone time.Time
}

// Run executes the serving schedule: warmup, then the measure window, then
// a drain of the admitted backlog. It returns the steady-state report; a
// non-nil error is a strategy or wiring failure (per-query drops and
// rejections are report rows, not errors).
func (d *Driver) Run(ctx context.Context) (*Report, error) {
	workers := make([]*workerStats, d.cfg.Workers)
	done := make(chan struct{})
	for i := range workers {
		ws := &workerStats{hist: stats.DefaultLatencyHistogram()}
		workers[i] = ws
		go func() {
			defer func() { done <- struct{}{} }()
			d.work(ctx, ws)
		}()
	}

	start := time.Now()
	warmupEnd := start.Add(d.cfg.Warmup)
	end := warmupEnd.Add(d.cfg.Measure)
	var submitted, rejected uint64

	// The snapshot ticker runs for as long as workers do; the final
	// snapshot is taken after the pool drains, so the last interval delta
	// closes the books exactly on the Report totals.
	var tlStop chan struct{}
	var tlDone chan struct{}
	if d.tl != nil {
		tlStop = make(chan struct{})
		tlDone = make(chan struct{})
		go func() {
			defer close(tlDone)
			ticker := time.NewTicker(d.cfg.SnapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-tlStop:
					return
				case <-ticker.C:
					d.tl.snapshot(d, time.Since(start).Seconds())
				}
			}
		}()
	}

	next := start
	for {
		gap := d.arr.Exp(d.cfg.TargetQPS)
		next = next.Add(time.Duration(gap * float64(time.Second)))
		if next.After(end) {
			break
		}
		if wait := time.Until(next); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		c := d.pop.Consumers[d.arr.Pick(len(d.pop.Consumers))]
		q := d.gen.Next(time.Since(start).Seconds(), c)
		measured := !next.Before(warmupEnd)
		if measured {
			submitted++
			if d.tl != nil {
				d.tl.submitted.Add(1)
			}
		}
		if err := d.offer(&submission{q: q, scheduled: next, measured: measured}); err != nil {
			if measured {
				rejected++
				if d.tl != nil {
					d.tl.rejected.Add(1)
				}
			}
		}
	}
	close(d.queue)
	for range workers {
		<-done
	}
	if d.tl != nil {
		close(tlStop)
		<-tlDone
		d.tl.snapshot(d, time.Since(start).Seconds())
	}

	r := &Report{
		Method:         d.cfg.Strategy.Name(),
		TargetQPS:      d.cfg.TargetQPS,
		Providers:      len(d.pop.Providers),
		Consumers:      len(d.pop.Consumers),
		Workers:        d.cfg.Workers,
		Batch:          d.cfg.Batch,
		QueueDepth:     d.cfg.QueueDepth,
		WarmupSeconds:  d.cfg.Warmup.Seconds(),
		MeasureSeconds: d.cfg.Measure.Seconds(),
		Submitted:      submitted,
		Rejected:       rejected,
		Latency:        stats.DefaultLatencyHistogram(),
	}
	var err error
	lastDone := warmupEnd
	for _, ws := range workers {
		r.Mediated += ws.mediated
		r.Dropped += ws.dropped
		r.Errors += ws.errs
		if err == nil {
			err = ws.firstErr
		}
		if ws.lastDone.After(lastDone) {
			lastDone = ws.lastDone
		}
		if mergeErr := r.Latency.Merge(ws.hist); mergeErr != nil && err == nil {
			err = mergeErr
		}
	}
	elapsed := lastDone.Sub(warmupEnd).Seconds()
	if elapsed < d.cfg.Measure.Seconds() {
		elapsed = d.cfg.Measure.Seconds()
	}
	if elapsed > 0 {
		r.MediationsPerSec = float64(r.Mediated) / elapsed
	}
	r.fillLatency()
	return r, err
}

// work is one pool worker: pull an admitted submission, greedily coalesce
// up to Batch-1 more without blocking, mediate the batch, account each
// outcome. Latency is observed at commit time against the open-loop
// schedule slot.
func (d *Driver) work(ctx context.Context, ws *workerStats) {
	batch := make([]*submission, 0, d.cfg.Batch)
	qs := make([]*model.Query, 0, d.cfg.Batch)
	for sub := range d.queue {
		batch = append(batch[:0], sub)
	coalesce:
		for len(batch) < d.cfg.Batch {
			select {
			case more, ok := <-d.queue:
				if !ok {
					break coalesce
				}
				batch = append(batch, more)
			default:
				break coalesce
			}
		}
		qs = qs[:0]
		for _, s := range batch {
			qs = append(qs, s.q)
		}
		// Only Err is read: the allocations live in server scratch that
		// another worker's batch may already be rewriting.
		for i, res := range d.srv.MediateBatch(ctx, qs) {
			d.account(ws, batch[i], res.Err)
		}
	}
}

func (d *Driver) account(ws *workerStats, sub *submission, err error) {
	if err != nil {
		if !sub.measured {
			return
		}
		if errors.Is(err, mediator.ErrNoProviders) {
			ws.dropped++
			if d.tl != nil {
				d.tl.dropped.Add(1)
			}
			return
		}
		ws.errs++
		if d.tl != nil {
			d.tl.errs.Add(1)
		}
		// A cancelled run is cut short, not broken: the queued backlog
		// fails mediation with the dead context, which belongs in the
		// error count but is not a strategy or wiring failure.
		if ws.firstErr == nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			ws.firstErr = err
		}
		return
	}
	if !sub.measured {
		return
	}
	now := time.Now()
	ws.mediated++
	ws.lastDone = now
	lat := now.Sub(sub.scheduled).Seconds()
	ws.hist.Observe(lat)
	if d.tl != nil {
		d.tl.mediated.Add(1)
		d.tl.observe(lat)
	}
}
