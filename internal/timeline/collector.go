package timeline

import (
	"sync"
)

// DefaultRawWindow bounds the collector's rolling raw-snapshot window —
// enough history for an 80-column sparkline with headroom, small enough to
// be negligible per run.
const DefaultRawWindow = 240

// Collector is the bounded-memory hub of the timeline: producers Offer
// raw snapshots, the collector keeps the most recent DefaultRawWindow of
// them in a rolling window (the dashboard's sparkline source) and fans
// each one out to the configured sinks. Memory is O(DefaultRawWindow +
// sinks) regardless of run length — nothing is ever buffered per row.
//
// A Collector is itself a Sink, so it can sit anywhere a plain sink does
// (sim.Options.Timeline, serving.Config.Timeline) and wrap any fan-out
// behind it. All methods are safe for concurrent use: the serving driver
// appends from its snapshot goroutine while sqlb-top reads Window from
// the render loop.
type Collector struct {
	mu    sync.Mutex
	sinks []Sink

	// raw is the rolling window ring; rawN is how many of its slots are
	// filled, rawHead the next write position.
	raw     []Snapshot
	rawHead int
	rawN    int

	err error
}

// NewCollector returns a collector fanning every snapshot out to the sinks.
func NewCollector(sinks ...Sink) *Collector {
	return &Collector{sinks: sinks, raw: make([]Snapshot, DefaultRawWindow)}
}

// Offer feeds one raw snapshot: it enters the rolling window and goes to
// every sink, keeping the first sink error.
func (c *Collector) Offer(s Snapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.raw[c.rawHead] = s
	c.rawHead = (c.rawHead + 1) % len(c.raw)
	if c.rawN < len(c.raw) {
		c.rawN++
	}
	for _, snk := range c.sinks {
		if err := snk.Append(s); err != nil && c.err == nil {
			c.err = err
		}
	}
}

// Window copies out the rolling raw window, oldest first — the
// dashboard's sparkline and trend source.
func (c *Collector) Window() []Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Snapshot, 0, c.rawN)
	start := c.rawHead - c.rawN
	if start < 0 {
		start += len(c.raw)
	}
	for i := 0; i < c.rawN; i++ {
		out = append(out, c.raw[(start+i)%len(c.raw)])
	}
	return out
}

// Append makes the collector a Sink so it can wrap a fan-out anywhere a
// plain sink is accepted. It reports the first error any downstream sink
// returned.
func (c *Collector) Append(s Snapshot) error {
	c.Offer(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes every sink, returning the first error seen anywhere in the
// pipeline.
func (c *Collector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, snk := range c.sinks {
		if cerr := snk.Close(); cerr != nil && c.err == nil {
			c.err = cerr
		}
	}
	return c.err
}
