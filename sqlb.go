// Package sqlb is a from-scratch Go implementation of SQLB — the
// Satisfaction-based Query Load Balancing framework of Quiané-Ruiz,
// Lamarre, and Valduriez (VLDB 2007) — together with the entire mediation
// system it lives in: the participant satisfaction model (adequation,
// satisfaction, allocation satisfaction over sliding windows), the
// intention calculus, the baseline allocation methods the paper compares
// against (Capacity-based and Mariposa-like), a discrete-event simulator of
// the mediation system, and a benchmark harness that regenerates every
// table and figure of the paper's evaluation.
//
// # Quick start
//
//	cfg := sqlb.DefaultConfig().Scale(0.1)
//	pop := sqlb.NewPopulation(cfg, 42)
//	med := sqlb.NewMediator(sqlb.NewSQLB())
//	q := &sqlb.Query{ID: 1, Consumer: pop.Consumers[0], Class: 0, Units: 130, N: 1}
//	alloc, err := med.Allocate(0, q, pop)
//
// For full simulations use NewSimulation; for the paper's experiments use
// NewExperimentLab (or the cmd/sqlb-experiments binary).
//
// See DESIGN.md for the system inventory and the paper-to-module map, and
// EXPERIMENTS.md for reproduced-versus-published results.
package sqlb

import (
	"time"

	"sqlb/internal/allocator"
	"sqlb/internal/core"
	"sqlb/internal/experiments"
	"sqlb/internal/intention"
	"sqlb/internal/matchmaking"
	"sqlb/internal/mediator"
	"sqlb/internal/metrics"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/sim"
	"sqlb/internal/workload"
)

// Core data model (Section 2 of the paper).
type (
	// Config is the system configuration (Table 2 defaults via
	// DefaultConfig).
	Config = model.Config
	// Population is the set of consumers and providers at the mediator.
	Population = model.Population
	// Consumer is an autonomous query issuer.
	Consumer = model.Consumer
	// Provider is an autonomous query performer with finite capacity.
	Provider = model.Provider
	// Query is the q = ⟨c, d, n⟩ triple.
	Query = model.Query
	// QueryClass describes one class of queries.
	QueryClass = model.QueryClass
	// ClassLevel is the low/medium/high provider classification.
	ClassLevel = model.ClassLevel
	// DepartureReason says why a participant left (Section 6.3.2).
	DepartureReason = model.DepartureReason
)

// Class levels and departure reasons re-exported for matching.
const (
	Low    = model.Low
	Medium = model.Medium
	High   = model.High

	ReasonNone            = model.ReasonNone
	ReasonDissatisfaction = model.ReasonDissatisfaction
	ReasonStarvation      = model.ReasonStarvation
	ReasonOverutilization = model.ReasonOverutilization
)

// Allocation strategies (Sections 5-6.2).
type (
	// Allocator is a pluggable query-allocation strategy.
	Allocator = allocator.Allocator
	// AllocationRequest is the per-query input an Allocator sees. A custom
	// strategy that reads PI calls ResolvePI first: the mediator leaves the
	// intentions of unwilling providers as bounds until asked. It reads
	// δs(Pq[i]) through ProviderSatisfaction: the mediator leaves
	// ProviderSat nil.
	AllocationRequest = allocator.Request
	// SQLBMethod is the paper's satisfaction-based method.
	SQLBMethod = allocator.SQLB
	// Mediator drives matchmaking, intention gathering, and allocation.
	Mediator = mediator.Mediator
	// Allocation is the outcome of mediating one query.
	Allocation = mediator.Allocation
	// Matchmaker finds the providers able to treat a query.
	Matchmaker = mediator.Matchmaker
	// MatchIndex is the inverted capability index: O(|Pq|) posting-list
	// lookups maintained incrementally under provider churn.
	MatchIndex = matchmaking.Index
	// MediationServer runs a mediator as a long-lived concurrent service:
	// queries from any goroutine, one at a time or in batches, each call
	// one serialized mediation turn.
	MediationServer = mediator.Server
	// MediationBatchResult is one query's outcome within a batched
	// mediation turn (MediationServer.MediateBatch).
	MediationBatchResult = mediator.BatchResult
)

// Simulation (Section 6.1 substrate).
type (
	// SimOptions configures one simulation run.
	SimOptions = sim.Options
	// Autonomy selects the active departure rules.
	Autonomy = sim.Autonomy
	// Simulation is a runnable discrete-event simulation.
	Simulation = sim.Engine
	// SimResult is the outcome of a run.
	SimResult = sim.Result
	// Sample is one §4 metric snapshot.
	Sample = sim.Sample
	// MetricSummary bundles mean, fairness, and balance for a value set.
	MetricSummary = metrics.Summary
	// WorkloadProfile maps sim-time to the offered workload fraction.
	WorkloadProfile = workload.Profile
	// ConstantWorkload is a fixed workload fraction.
	ConstantWorkload = workload.Constant
	// RampWorkload increases the workload linearly (Figure 4 setting).
	RampWorkload = workload.Ramp
)

// Experiments (Section 6 reproduction harness).
type (
	// ExperimentConfig scales the experiment suite.
	ExperimentConfig = experiments.Config
	// ExperimentLab owns memoized runs for one configuration.
	ExperimentLab = experiments.Lab
	// ExperimentResult is one regenerated table/figure.
	ExperimentResult = experiments.Result
)

// DefaultConfig returns the paper's Table 2 configuration (200 consumers,
// 400 providers, windows 200/500, initial satisfaction 0.5, υ = 1, ε = 1).
func DefaultConfig() Config { return model.DefaultConfig() }

// NewPopulation builds a participant population from the configuration,
// deterministically from the seed.
func NewPopulation(cfg Config, seed uint64) *Population {
	return model.NewPopulation(cfg, randx.New(seed), 0)
}

// NewMediator returns a mediator running the given allocation strategy with
// no matchmaker: every alive provider is in Pq.
func NewMediator(strategy Allocator) *Mediator { return mediator.New(strategy) }

// BuildMatchIndex indexes the population's alive providers by advertised
// query class; assign it to Mediator.Match to replace the O(|P|) scan with
// O(|Pq|) posting-list lookups (simulations built via NewSimulation do
// this automatically).
func BuildMatchIndex(pop *Population) *MatchIndex { return matchmaking.BuildIndex(pop) }

// NewMediationServer returns a concurrent mediation service over the
// population; now supplies the mediation clock (nil = wall clock). The
// timeout is ignored and stays only because the frozen benchmark/ passes
// one (see mediator.NewServer).
func NewMediationServer(strategy Allocator, pop *Population, timeout time.Duration, now func() float64) *MediationServer {
	return mediator.NewServer(strategy, pop, timeout, now)
}

// NewSQLB returns the paper's SQLB method with the adaptive ω of
// Equation 6.
func NewSQLB() Allocator { return allocator.NewSQLB() }

// NewSQLBFixedOmega returns SQLB with a constant ω ∈ [0,1] (the paper's
// application-specific setting; ω = 0 weights only consumer intentions).
func NewSQLBFixedOmega(omega float64) Allocator { return allocator.NewSQLBFixedOmega(omega) }

// NewCapacityBased returns the Capacity-based baseline (Section 6.2.1).
func NewCapacityBased() Allocator { return allocator.NewCapacityBased() }

// NewMariposaLike returns the Mariposa-like economic baseline
// (Section 6.2.2).
func NewMariposaLike() Allocator { return allocator.NewMariposaLike() }

// NewSQLBEconomic returns the economic SQLB variant the paper sketches as
// future work (bids computed from intentions, Section 7).
func NewSQLBEconomic() Allocator { return allocator.NewSQLBEconomic() }

// NewRandom returns the uniform-random control strategy.
func NewRandom(seed uint64) Allocator { return allocator.NewRandom(seed) }

// NewSimulation builds a discrete-event simulation from the options.
func NewSimulation(opts SimOptions) (*Simulation, error) { return sim.New(opts) }

// FullAutonomy is the Figure 5(b) departure setting.
func FullAutonomy() Autonomy { return sim.FullAutonomy() }

// DissatStarvationAutonomy is the Figure 5(a) departure setting.
func DissatStarvationAutonomy() Autonomy { return sim.DissatStarvationAutonomy() }

// NewExperimentLab returns a lab that regenerates the paper's tables and
// figures under the given scaling.
func NewExperimentLab(cfg ExperimentConfig) *ExperimentLab { return experiments.NewLab(cfg) }

// Experiments lists the registered experiment IDs in paper order.
func Experiments() []string {
	out := make([]string, len(experiments.Registry))
	for i, s := range experiments.Registry {
		out[i] = s.ID
	}
	return out
}

// Mean is the §4 efficiency metric µ(g,S) (Equation 3).
func Mean(values []float64) float64 { return metrics.Mean(values) }

// Fairness is the §4 sensitivity metric f(g,S), the Jain fairness index
// (Equation 4).
func Fairness(values []float64) float64 { return metrics.Fairness(values) }

// Balance is the §4 min-max balance metric σ(g,S) (Equation 5).
func Balance(values []float64) float64 { return metrics.Balance(values) }

// Summarize computes all three §4 metrics over a value set.
func Summarize(values []float64) MetricSummary { return metrics.Summarize(values) }

// ConsumerIntention evaluates Definition 7 (raw value; see DESIGN.md on why
// scoring uses raw intentions).
func ConsumerIntention(pref, reputation, upsilon, epsilon float64) float64 {
	return intention.Consumer(pref, reputation, upsilon, epsilon)
}

// ProviderIntention evaluates Definition 8.
func ProviderIntention(pref, utilization, satisfaction, epsilon float64) float64 {
	return intention.Provider(pref, utilization, satisfaction, epsilon)
}

// Omega evaluates Equation 6, the adaptive consumer/provider balance.
func Omega(consumerSat, providerSat float64) float64 { return core.Omega(consumerSat, providerSat) }

// Score evaluates Definition 9, the provider score.
func Score(providerIntention, consumerIntention, omega, epsilon float64) float64 {
	return core.Score(providerIntention, consumerIntention, omega, epsilon)
}
