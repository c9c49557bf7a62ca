package serving

import (
	"fmt"
	"strings"

	"sqlb/internal/stats"
)

// Report is the steady-state outcome of one serving run, measured over the
// post-warmup window. The JSON tags are the contract with tools/benchjson,
// which embeds a serving report into BENCH_results.json.
type Report struct {
	Method         string  `json:"method"`
	TargetQPS      float64 `json:"target_qps"`
	Providers      int     `json:"providers"`
	Consumers      int     `json:"consumers"`
	Workers        int     `json:"workers"`
	Batch          int     `json:"batch"`
	QueueDepth     int     `json:"queue_depth"`
	WarmupSeconds  float64 `json:"warmup_s"`
	MeasureSeconds float64 `json:"measure_s"`

	// Submitted counts measured-phase arrivals; every one of them ends up
	// in exactly one of Rejected (admission control), Mediated, Dropped
	// (empty Pq), or Errors — the accounting invariant the serving tests
	// pin.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Mediated  uint64 `json:"mediated"`
	Dropped   uint64 `json:"dropped"`
	Errors    uint64 `json:"errors"`

	MediationsPerSec float64 `json:"mediations_per_sec"`
	LatencyMeanMs    float64 `json:"latency_mean_ms"`
	LatencyP50Ms     float64 `json:"latency_p50_ms"`
	LatencyP95Ms     float64 `json:"latency_p95_ms"`
	LatencyP99Ms     float64 `json:"latency_p99_ms"`
	LatencyMaxMs     float64 `json:"latency_max_ms"`

	// Latency is the full distribution the *Ms fields are cut from.
	Latency *stats.Histogram `json:"-"`
}

// fillLatency cuts the headline latency fields from the merged histogram.
func (r *Report) fillLatency() {
	if r.Latency == nil || r.Latency.Count() == 0 {
		return
	}
	const ms = 1000
	r.LatencyMeanMs = r.Latency.Mean() * ms
	r.LatencyP50Ms = r.Latency.Quantile(0.5) * ms
	r.LatencyP95Ms = r.Latency.Quantile(0.95) * ms
	r.LatencyP99Ms = r.Latency.Quantile(0.99) * ms
	r.LatencyMaxMs = r.Latency.Max() * ms
}

// String renders the report for the terminal.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "method            %s\n", r.Method)
	fmt.Fprintf(&b, "population        %d consumers, %d providers\n", r.Consumers, r.Providers)
	fmt.Fprintf(&b, "drive             %.0f qps open-loop, %d workers, batch %d, queue %d\n",
		r.TargetQPS, r.Workers, r.Batch, r.QueueDepth)
	fmt.Fprintf(&b, "phases            warmup %.1fs, measure %.1fs\n", r.WarmupSeconds, r.MeasureSeconds)
	fmt.Fprintf(&b, "admission         submitted %d, rejected %d (backpressure)\n", r.Submitted, r.Rejected)
	fmt.Fprintf(&b, "mediations        %d done (%.1f/sec), dropped %d, errors %d\n",
		r.Mediated, r.MediationsPerSec, r.Dropped, r.Errors)
	fmt.Fprintf(&b, "latency           mean %.3fms, p50 %.3fms, p95 %.3fms, p99 %.3fms, max %.3fms",
		r.LatencyMeanMs, r.LatencyP50Ms, r.LatencyP95Ms, r.LatencyP99Ms, r.LatencyMaxMs)
	return b.String()
}
