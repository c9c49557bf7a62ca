// Package timeline is the streaming observability layer: a unified
// Snapshot type over the simulator's §4 samples and the serving driver's
// interval reports, a bounded-memory Collector that keeps a rolling window
// of snapshots and fans them out to pluggable sinks, a streaming
// CSV sink/decoder pair (write rows as they are produced, tail them back
// live), a calculator that turns a snapshot window into health signals
// and threshold-based recommendations, and the ANSI dashboard renderer
// behind cmd/sqlb-top.
//
// The layer is strictly an observer: producers push copies of their state
// through Sink.Append and never read anything back, so enabling a
// timeline cannot perturb a run (sim.TestTimelineDeterminism pins the
// engine's Result byte-identical with and without a sink attached).
package timeline

// Snapshot is one observation interval of a running system — either one
// §4 metric sample of a simulation or one wall-clock interval of the
// serving driver. Fields a source cannot fill stay zero; the CSV codec and
// the dashboard both work off the fields table below, so the two stay in
// sync by construction.
type Snapshot struct {
	// Time is the snapshot instant: sim-seconds for the simulator,
	// wall-clock seconds since Run for the serving driver.
	Time float64
	// Source labels the producer: "sim" or "serve".
	Source string

	// WorkloadFraction is the offered load as a fraction of total system
	// capacity (sim only; the serving driver's offered load is QPSIn).
	WorkloadFraction float64
	// QPSIn and QPSOut are the arrival and completion rates over the
	// interval (issued/completed for sim, submitted/mediated for serving).
	QPSIn  float64
	QPSOut float64
	// Dropped, Rejected, and Errors count interval events: queries no
	// provider could take, admission-control rejections (ErrOverloaded;
	// serving only), and wiring errors.
	Dropped  float64
	Rejected float64
	Errors   float64
	// QueueDepth is the instantaneous backlog: queries in flight on the
	// providers for sim, submit-queue occupancy for serving.
	QueueDepth float64

	// LatencyMean is the mean response/mediation latency over the
	// interval; the quantiles are cumulative over the run so far (cutting
	// per-interval quantiles would need a histogram per interval).
	LatencyMean float64
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64

	// ProvSat, ConsSat, and AllocSat are the mean provider satisfaction
	// δs(p), consumer satisfaction δs(c), and provider allocation
	// satisfaction δas(p) over the alive participants.
	ProvSat  float64
	ConsSat  float64
	AllocSat float64
	// SatFairness is the Jain fairness of provider satisfaction.
	SatFairness float64

	// UtilMean/UtilFairness/UtilGini summarize Ut(p) over the alive
	// providers; Gini is the imbalance gauge the dashboard renders.
	UtilMean     float64
	UtilFairness float64
	UtilGini     float64
	// UtilClassLow/Med/High are the mean utilizations per provider
	// capacity class — the dashboard's per-class bars.
	UtilClassLow  float64
	UtilClassMed  float64
	UtilClassHigh float64

	// AliveProviders and AliveConsumers count the remaining participants;
	// Departures and Joins are the cumulative churn ledgers.
	AliveProviders float64
	AliveConsumers float64
	Departures     float64
	Joins          float64
}

// field is one Snapshot column: its CSV header name and accessors.
type field struct {
	name string
	get  func(*Snapshot) float64
	set  func(*Snapshot, float64)
}

// fields is the single source of truth for the Snapshot schema. Order is
// the CSV column order; append new fields at the end so recorded
// timelines stay readable by column name.
var fields = []field{
	{"time", func(s *Snapshot) float64 { return s.Time }, func(s *Snapshot, v float64) { s.Time = v }},
	{"workload", func(s *Snapshot) float64 { return s.WorkloadFraction }, func(s *Snapshot, v float64) { s.WorkloadFraction = v }},
	{"qps_in", func(s *Snapshot) float64 { return s.QPSIn }, func(s *Snapshot, v float64) { s.QPSIn = v }},
	{"qps_out", func(s *Snapshot) float64 { return s.QPSOut }, func(s *Snapshot, v float64) { s.QPSOut = v }},
	{"dropped", func(s *Snapshot) float64 { return s.Dropped }, func(s *Snapshot, v float64) { s.Dropped = v }},
	{"rejected", func(s *Snapshot) float64 { return s.Rejected }, func(s *Snapshot, v float64) { s.Rejected = v }},
	{"errors", func(s *Snapshot) float64 { return s.Errors }, func(s *Snapshot, v float64) { s.Errors = v }},
	{"queue_depth", func(s *Snapshot) float64 { return s.QueueDepth }, func(s *Snapshot, v float64) { s.QueueDepth = v }},
	{"latency_mean", func(s *Snapshot) float64 { return s.LatencyMean }, func(s *Snapshot, v float64) { s.LatencyMean = v }},
	{"latency_p50", func(s *Snapshot) float64 { return s.LatencyP50 }, func(s *Snapshot, v float64) { s.LatencyP50 = v }},
	{"latency_p95", func(s *Snapshot) float64 { return s.LatencyP95 }, func(s *Snapshot, v float64) { s.LatencyP95 = v }},
	{"latency_p99", func(s *Snapshot) float64 { return s.LatencyP99 }, func(s *Snapshot, v float64) { s.LatencyP99 = v }},
	{"prov_sat", func(s *Snapshot) float64 { return s.ProvSat }, func(s *Snapshot, v float64) { s.ProvSat = v }},
	{"cons_sat", func(s *Snapshot) float64 { return s.ConsSat }, func(s *Snapshot, v float64) { s.ConsSat = v }},
	{"alloc_sat", func(s *Snapshot) float64 { return s.AllocSat }, func(s *Snapshot, v float64) { s.AllocSat = v }},
	{"sat_fairness", func(s *Snapshot) float64 { return s.SatFairness }, func(s *Snapshot, v float64) { s.SatFairness = v }},
	{"util_mean", func(s *Snapshot) float64 { return s.UtilMean }, func(s *Snapshot, v float64) { s.UtilMean = v }},
	{"util_fairness", func(s *Snapshot) float64 { return s.UtilFairness }, func(s *Snapshot, v float64) { s.UtilFairness = v }},
	{"util_gini", func(s *Snapshot) float64 { return s.UtilGini }, func(s *Snapshot, v float64) { s.UtilGini = v }},
	{"util_class_low", func(s *Snapshot) float64 { return s.UtilClassLow }, func(s *Snapshot, v float64) { s.UtilClassLow = v }},
	{"util_class_med", func(s *Snapshot) float64 { return s.UtilClassMed }, func(s *Snapshot, v float64) { s.UtilClassMed = v }},
	{"util_class_high", func(s *Snapshot) float64 { return s.UtilClassHigh }, func(s *Snapshot, v float64) { s.UtilClassHigh = v }},
	{"alive_providers", func(s *Snapshot) float64 { return s.AliveProviders }, func(s *Snapshot, v float64) { s.AliveProviders = v }},
	{"alive_consumers", func(s *Snapshot) float64 { return s.AliveConsumers }, func(s *Snapshot, v float64) { s.AliveConsumers = v }},
	{"departures", func(s *Snapshot) float64 { return s.Departures }, func(s *Snapshot, v float64) { s.Departures = v }},
	{"joins", func(s *Snapshot) float64 { return s.Joins }, func(s *Snapshot, v float64) { s.Joins = v }},
}

// Sink consumes a stream of snapshots. Append is called from the
// producer's snapshot path (the sim event loop, the serving snapshot
// goroutine), so implementations should be cheap and must not call back
// into the producer. Close flushes and releases resources; no Append
// follows a Close.
type Sink interface {
	Append(s Snapshot) error
	Close() error
}

// SinkFunc adapts a function to the Sink interface (Close is a no-op) —
// the in-process hook tests and embedders use.
type SinkFunc func(s Snapshot) error

// Append calls f.
func (f SinkFunc) Append(s Snapshot) error { return f(s) }

// Close is a no-op.
func (f SinkFunc) Close() error { return nil }
