package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"sqlb"
	"sqlb/internal/timeline"
)

// spanName identifies what a span timed.
type spanName uint8

// The replay stages are children of spQuery; the in-situ spans are
// children of the whole-call span (spBatch, spSingle, spRun) they ran in.
const (
	spQuery spanName = iota
	spMatch
	spConsumerIntent
	spProviderIntent
	spSatRead
	spAllocate
	spRecord
	spAssign
	spTwinAllocate
	spBatch
	spSingle
	spRun
	spInsituAllocate
	spInsituMatch
	spSinkAppend
	spQueueWait
	spService
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"replay.query", "matchmaking.match", "intention.consumer", "intention.provider",
	"satisfaction.read", "allocator.allocate", "satisfaction.record", "model.assign",
	"mediator.allocate", "mediator.batch", "mediator.single", "sim.run",
	"insitu.allocator", "insitu.matchmaker", "insitu.sink", "harness.queue_wait", "harness.service",
}

// span is one fixed-size trace record.
type span struct {
	Start, End int64 // ns since the tracer started
	Parent     int32 // index of the causing span, -1 for a root
	Query      uint32
	Name       spanName
}

// tracer keeps spans in a preallocated buffer and per-name totals beside
// it. The totals are what the per-layer metrics are computed from, so a
// full buffer (counted in dropped) loses trace-out detail but no metric.
// It is written by one goroutine at a time: the harness runs its phases
// one after another and joins their goroutines in between.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
	total   [numSpanNames]int64
	// cur is the open whole-call span the in-situ decorators hang their
	// spans under.
	cur int32
	// off makes the decorators and whole-call spans of a long-lived server
	// pass through, so one warm server gives both sides of the
	// traced-against-untraced comparison.
	off bool
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), cur: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open reserves a root span whose children are recorded before it ends;
// close gives it its times. Reserving reads no clock, so it can sit outside
// the interval the span measures.
func (t *tracer) open(name spanName, query uint32) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Parent: -1, Query: query, Name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, name spanName, start, end int64) {
	t.total[name] += end - start
	if id >= 0 {
		t.spans[id].Start, t.spans[id].End = start, end
	}
}

// add records a finished span.
func (t *tracer) add(name spanName, parent int32, query uint32, start, end int64) {
	t.total[name] += end - start
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Start: start, End: end, Parent: parent, Query: query, Name: name})
}

// writeJSONL writes the span buffer, one object per line, after the run.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"query":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[s.Name], s.Parent, s.Query, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAllocator times a strategy at the Allocator seam, inside whatever
// front door calls it.
type tracedAllocator struct {
	inner      sqlb.Allocator
	tr         *tracer
	candidates int64
}

func (a *tracedAllocator) Name() string { return a.inner.Name() }

func (a *tracedAllocator) Allocate(req *sqlb.AllocationRequest) []int {
	if a.tr.off {
		return a.inner.Allocate(req)
	}
	start := a.tr.now()
	selected := a.inner.Allocate(req)
	a.tr.add(spInsituAllocate, a.tr.cur, uint32(req.Query.ID), start, a.tr.now())
	a.candidates += int64(len(req.Pq))
	return selected
}

// tracedMatchmaker times the Matchmaker seam of the mediation server.
type tracedMatchmaker struct {
	inner sqlb.Matchmaker
	tr    *tracer
}

func (m *tracedMatchmaker) Match(q *sqlb.Query, pop *sqlb.Population) []*sqlb.Provider {
	if m.tr.off {
		return m.inner.Match(q, pop)
	}
	start := m.tr.now()
	pq := m.inner.Match(q, pop)
	m.tr.add(spInsituMatch, m.tr.cur, uint32(q.ID), start, m.tr.now())
	return pq
}

// timedSink stamps the host time of every timeline row. The stamps are the
// clock of the simulators' lat_p50_ms (host time between rows), so it also
// wraps the sink of untraced runs; a traced run adds a span per row.
type timedSink struct {
	inner  timeline.Sink
	tr     *tracer
	t0     time.Time
	stamps []int64
	busy   int64
}

func (s *timedSink) Append(row timeline.Snapshot) error {
	start := int64(time.Since(s.t0))
	err := s.inner.Append(row)
	end := int64(time.Since(s.t0))
	s.stamps = append(s.stamps, start)
	s.busy += end - start
	if s.tr != nil {
		base := int64(s.t0.Sub(s.tr.t0))
		s.tr.add(spSinkAppend, s.tr.cur, uint32(len(s.stamps)), base+start, base+end)
	}
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }
