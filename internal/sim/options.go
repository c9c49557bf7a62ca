package sim

import (
	"errors"
	"fmt"
	"math"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/scenario"
	"sqlb/internal/timeline"
	"sqlb/internal/workload"
)

// The Section 6.3.2 departure thresholds: a provider leaves by
// dissatisfaction when δs(p) < δa(p) − providerDissatMargin, and by
// starvation when Ut(p) < starvationFraction · optimal.
const (
	providerDissatMargin = 0.15
	starvationFraction   = 0.2
)

// consumerSmoothingAlpha is the EWMA factor of the consumers'
// self-assessment. Consumer tracker readings refresh only as fast as the
// k = 200 query window turns over (minutes of sim-time), so the consumer
// EWMA must be much slower than the provider one (Options.SmoothingAlpha)
// to actually average independent window states; otherwise window noise
// leaks straight into departure decisions.
const consumerSmoothingAlpha = 0.005

// Autonomy configures which departure rules of Section 6.3.2 are active.
// The zero value is the captive system of Section 6.3.1 (nobody may leave).
type Autonomy struct {
	// ConsumersMayLeave enables consumer departure by dissatisfaction:
	// a consumer leaves when δs(c) < δa(c) − ConsumerDissatMargin.
	ConsumersMayLeave bool
	// ProvidersDissatisfaction enables provider departure when
	// δs(p) < δa(p) − 0.15 (the paper's margin), judged on the provider's
	// private, preference-based characteristics.
	ProvidersDissatisfaction bool
	// ProvidersStarvation enables departure when
	// Ut(p) < 0.2 · optimal (paper: 20% of optimal).
	ProvidersStarvation bool
	// ProvidersOverutilization enables departure when
	// Ut(p) > OverutilizationFactor · optimal (paper: 220% of optimal).
	ProvidersOverutilization bool

	// ConsumerDissatMargin is a small stability tolerance on the strict
	// "satisfaction smaller than adequation" rule; with an exactly-neutral
	// method, δs(c) fluctuates symmetrically around δa(c) and a literal
	// zero margin would classify sampling noise as punishment. Default
	// 0.02.
	ConsumerDissatMargin float64
	// OverutilizationFactor defaults to 2.2.
	OverutilizationFactor float64
	// OverutilizationFloor is the minimum utilization that ever counts as
	// overutilization (default 1.1): at low nominal workloads the paper's
	// 220%-of-optimal threshold falls below a provider's sustainable rate
	// (2.2 × 0.4 = 0.88 < 1), and a provider running within its capacity
	// is not harmed. The floor keeps the rule meaning "well past what the
	// provider can sustain".
	OverutilizationFloor float64
	// Grace is the sim-time before the first departure check (windows must
	// warm up; the trackers start at the 0.5 prior). Default 300 s.
	Grace float64
	// CheckInterval is the cadence of departure checks. Default 20 s.
	CheckInterval float64
}

// FullAutonomy returns the Figure 5(b) setting: providers may leave for all
// three reasons and consumers by dissatisfaction.
func FullAutonomy() Autonomy {
	return Autonomy{
		ConsumersMayLeave:        true,
		ProvidersDissatisfaction: true,
		ProvidersStarvation:      true,
		ProvidersOverutilization: true,
	}
}

// DissatStarvationAutonomy returns the Figure 5(a) setting: providers may
// leave only by dissatisfaction or starvation.
func DissatStarvationAutonomy() Autonomy {
	return Autonomy{
		ConsumersMayLeave:        true,
		ProvidersDissatisfaction: true,
		ProvidersStarvation:      true,
	}
}

// enabled reports whether any departure rule is active.
func (a Autonomy) enabled() bool {
	return a.ConsumersMayLeave || a.ProvidersDissatisfaction ||
		a.ProvidersStarvation || a.ProvidersOverutilization
}

func (a Autonomy) withDefaults() Autonomy {
	if a.ConsumerDissatMargin == 0 {
		a.ConsumerDissatMargin = 0.02
	}
	if a.OverutilizationFactor == 0 {
		a.OverutilizationFactor = 2.2
	}
	if a.OverutilizationFloor == 0 {
		a.OverutilizationFloor = 1.1
	}
	if a.Grace == 0 {
		a.Grace = 300
	}
	if a.CheckInterval == 0 {
		a.CheckInterval = 20
	}
	return a
}

// Options configures one simulation run.
type Options struct {
	// Config is the population/system configuration (Table 2 defaults via
	// model.DefaultConfig).
	Config model.Config
	// Strategy is the query-allocation method under test.
	Strategy allocator.Allocator
	// Workload shapes the offered load over time.
	Workload workload.Profile
	// Scenario overlays time-varying load and churn on the run: its load
	// curve (if any) replaces Workload, its waves schedule provider
	// outages/rejoins as discrete events, and its mix varies the query-
	// class weights over time. A normalized scenario is scaled to the
	// run's Duration. Nil reproduces the paper's constant/ramp workloads
	// exactly (not a single RNG draw differs).
	Scenario *scenario.Scenario
	// Duration is the simulated horizon in seconds.
	Duration float64
	// Seed drives every random stream of the run.
	Seed uint64
	// SampleInterval is the §4 metric sampling cadence in sim-seconds;
	// 0 disables time-series sampling (a final sample is always taken).
	SampleInterval float64
	// Autonomy configures departures; zero value = captive participants.
	Autonomy Autonomy
	// SmoothingAlpha is the EWMA factor of the providers' long-run
	// self-assessment (model.Provider.Smooth), applied every
	// SmoothingInterval sim-seconds. The instantaneous provider
	// satisfaction reading rests on the few queries performed within the
	// last-k proposals, so the self-assessment — which Definition 8's
	// exponent and the departure rules consult — must integrate it over
	// time. Defaults: α = 0.03 every 20 s.
	SmoothingAlpha float64
	// SmoothingInterval is the cadence of the self-assessment update.
	SmoothingInterval float64
	// Timeline, when non-nil, receives one timeline.Snapshot per metric
	// sample (and one for the final state) — the streaming observability
	// hook behind sqlb-top and the -timeline exports. The sink is a
	// pure observer of the sample path: it is fed copies after each
	// sample is recorded, draws nothing from the RNG streams, and
	// mutates no engine state, so enabling it leaves the Result
	// byte-identical (TestTimelineDeterminism). The engine does not
	// close the sink (Run does); the first Append error is surfaced via
	// Engine.TimelineErr.
	Timeline timeline.Sink
}

func (o *Options) smoothingDefaults() (alpha, interval float64) {
	alpha, interval = o.SmoothingAlpha, o.SmoothingInterval
	if alpha <= 0 {
		alpha = 0.03
	}
	if interval <= 0 {
		interval = 20
	}
	return alpha, interval
}

// Validate checks the options.
func (o *Options) Validate() error {
	var errs []error
	if err := o.Config.Validate(); err != nil {
		errs = append(errs, err)
	}
	if o.Strategy == nil {
		errs = append(errs, errors.New("sim: options need a strategy"))
	}
	if o.Workload == nil && (o.Scenario == nil || o.Scenario.Load == nil) {
		errs = append(errs, errors.New("sim: options need a workload profile or a scenario with a load curve"))
	}
	if o.Scenario != nil {
		if err := o.Scenario.Validate(); err != nil {
			errs = append(errs, err)
		} else if len(o.Scenario.Mix) > 0 {
			if got, want := len(o.Scenario.Mix[0].Weights), len(o.Config.QueryClasses); got != want {
				errs = append(errs, fmt.Errorf("sim: scenario mix has %d weights per knot, run has %d query classes", got, want))
			}
		}
	}
	// The negated comparisons reject NaN too: a NaN horizon never ends the
	// event loop, and NaN event times would corrupt the heap order.
	if !(o.Duration > 0) || math.IsInf(o.Duration, 0) {
		errs = append(errs, errors.New("sim: duration must be positive and finite"))
	}
	if !(o.SampleInterval >= 0) || math.IsInf(o.SampleInterval, 0) {
		errs = append(errs, errors.New("sim: sample interval must be >= 0 and finite"))
	}
	if math.IsNaN(o.SmoothingInterval) || math.IsInf(o.SmoothingInterval, 0) {
		errs = append(errs, errors.New("sim: smoothing interval must be finite"))
	}
	return errors.Join(errs...)
}
