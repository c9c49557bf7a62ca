package model

import (
	"errors"
	"fmt"
	"math"
)

// Config captures the experimental setup of the paper (Table 2 plus the
// Section 6.1 population description). DefaultConfig returns the published
// values; experiments scale or override fields as needed.
type Config struct {
	// Consumers and Providers are the population sizes (paper: 200 / 400).
	Consumers int
	Providers int

	// ConsumerK is the consumer satisfaction window (k last issued
	// queries, paper: 200); ProviderK the provider window (k last proposed
	// queries, paper: 500).
	ConsumerK int
	ProviderK int

	// InitialSatisfaction seeds every tracker (paper: 0.5); PriorSamples
	// is the virtual-sample weight with which the seed blends into the
	// window mean (see internal/satisfaction).
	InitialSatisfaction float64
	PriorSamples        int

	// Upsilon is υ of Definition 7 for all consumers (paper experiments:
	// 1, i.e. intentions ≡ preferences). Epsilon is ε of Definitions 7
	// and 8; Definition 9 scores at core.DefaultEpsilon.
	Upsilon float64
	Epsilon float64

	// UtilizationWindow is W in seconds for Ut(p) (see DESIGN.md §2.1).
	UtilizationWindow float64
	// LoadHorizon is the backlog horizon (seconds) of the providers'
	// operational load (model.Provider.OperationalLoad): a provider
	// considers itself fully loaded once its queued work reaches this many
	// seconds, even if its assigned rate is below capacity.
	LoadHorizon float64

	// QueryClasses lists the workload's query classes (paper: 130 and 150
	// treatment units). QueryN is q.n (paper: 1).
	QueryClasses []QueryClass
	QueryN       int

	// HighCapacity is the service rate of a high-capacity provider in
	// units/second; medium is a third and low a seventh of it (Section
	// 6.1: high = 3× medium = 7× low). 100 units/s makes a high-capacity
	// provider serve the two query classes in 1.3 s and 1.5 s as published.
	HighCapacity float64

	// InterestShares, AdaptShares, CapacityShares give the fraction of
	// providers in the low/medium/high class of each dimension (indexed by
	// ClassLevel). Paper: interest 10/30/60, adaptation 5/60/35,
	// capacity 10/60/30.
	InterestShares [3]float64
	AdaptShares    [3]float64
	CapacityShares [3]float64

	// InterestBands and AdaptBands are the [lo,hi] preference bands per
	// class level from which preferences are drawn uniformly.
	InterestBands [3][2]float64
	AdaptBands    [3][2]float64

	// ReputationBand is the band from which static provider reputations
	// are drawn (unused when υ = 1).
	ReputationBand [2]float64

	// ReputationFeedbackAlpha, when positive, enables the feedback-driven
	// reputation extension: after each completed query the issuing
	// consumer rates every serving provider with its private preference,
	// folded into rep(p) with this EWMA factor. 0 (the default, and the
	// paper's setting) keeps reputations static.
	ReputationFeedbackAlpha float64

	// CapabilitySelectivity opens the heterogeneous-capability scenarios
	// the paper abstracts away (Section 2 assumes a sound and complete
	// matchmaking procedure, refs [11,14], and the experiments make every
	// provider capable of every query). A value s ∈ (0,1) makes each
	// provider advertise max(1, round(s·|classes|)) query classes drawn
	// uniformly; 0 (the default) and values ≥ 1 reproduce the paper's
	// all-capable setup. The matchmaker then finds Pq from the advertised
	// capability sets instead of returning the whole population.
	CapabilitySelectivity float64
	// GeneralistShare is the fraction of providers that advertise every
	// query class even under CapabilitySelectivity < 1 — the
	// specialists-vs-generalists scenario. 0 (default) makes every
	// provider a specialist when selectivity is active.
	GeneralistShare float64
	// ClassSkew shapes the query-class popularity: class i is drawn with
	// weight 1/(i+1)^ClassSkew (Zipf-like). 0 (the default, and the
	// paper's setting) keeps the uniform class mix of Section 6.1.
	ClassSkew float64

	// HashedConsumerPrefs switches consumer preferences from stored to
	// procedural: instead of materializing prf_c(p) for every (consumer,
	// provider) pair — O(|C|·|P|) floats, which at 1M consumers × 100k
	// providers would be 800 GB — each consumer draws one 64-bit seed and
	// prf_c(p) is derived on demand by hashing (seed, p.ID) into a uniform
	// draw from p's interest band. The marginal distribution is the same
	// as the stored setup's (uniform within the band, independent across
	// pairs), preferences stay fixed for a consumer's lifetime, and
	// SetPreference still works through a per-consumer override map. The
	// RNG draw sequence differs from the stored mode (one draw per
	// consumer instead of |P|), so this is opt-in for the
	// population-scale experiments; the default keeps every published run
	// byte-identical.
	HashedConsumerPrefs bool
}

// DefaultLoadHorizon is the backlog horizon (seconds) of DefaultConfig, and
// what Provider.OperationalLoad falls back to for a provider whose
// LoadHorizon is not a positive number.
const DefaultLoadHorizon = 3

// DefaultConfig returns the paper's Table 2 / Section 6.1 configuration.
func DefaultConfig() Config {
	return Config{
		Consumers:           200,
		Providers:           400,
		ConsumerK:           200,
		ProviderK:           500,
		InitialSatisfaction: 0.5,
		PriorSamples:        50,
		Upsilon:             1,
		Epsilon:             1,
		UtilizationWindow:   60,
		LoadHorizon:         DefaultLoadHorizon,
		QueryClasses:        []QueryClass{{Units: 130}, {Units: 150}},
		QueryN:              1,
		HighCapacity:        100,
		InterestShares:      [3]float64{Low: 0.10, Medium: 0.30, High: 0.60},
		AdaptShares:         [3]float64{Low: 0.05, Medium: 0.60, High: 0.35},
		CapacityShares:      [3]float64{Low: 0.10, Medium: 0.60, High: 0.30},
		InterestBands: [3][2]float64{
			Low:    {-1, -0.54},
			Medium: {-0.54, 0.34},
			High:   {0.34, 1},
		},
		AdaptBands: [3][2]float64{
			Low:    {-1, 0.2},
			Medium: {-0.6, 0.6},
			High:   {-0.2, 1},
		},
		ReputationBand: [2]float64{0, 1},
	}
}

// Scale returns a copy of the configuration with the population scaled by
// factor (≥ 1 participant of each kind is kept). The provider window k
// scales along with the provider count: the expected number of performed
// queries inside a provider's last-k-proposals window is k/|P| (every query
// is proposed to everyone), and that ratio — not k itself — drives the
// satisfaction dynamics the evaluation depends on. The consumer window is
// left alone because each consumer's issue rate is scale-invariant.
func (c Config) Scale(factor float64) Config {
	if factor <= 0 {
		factor = 1
	}
	scaled := c
	scaled.Consumers = maxInt(1, int(float64(c.Consumers)*factor+0.5))
	scaled.Providers = maxInt(1, int(float64(c.Providers)*factor+0.5))
	scaled.ProviderK = maxInt(10, int(float64(c.ProviderK)*factor+0.5))
	return scaled
}

// WithClasses returns a copy of the configuration carrying k query classes
// whose treatment units are spread linearly over the paper's [130,150]
// band, preserving the published mean of 140 units per query. k < 2
// returns the configuration unchanged (the paper's two classes).
func (c Config) WithClasses(k int) Config {
	if k < 2 {
		return c
	}
	out := c
	out.QueryClasses = make([]QueryClass, k)
	lo, hi := 130.0, 150.0
	for i := range out.QueryClasses {
		out.QueryClasses[i] = QueryClass{Units: lo + (hi-lo)*float64(i)/float64(k-1)}
	}
	return out
}

// Heterogeneous reports whether the capability scenarios are active: a
// CapabilitySelectivity strictly between 0 and 1 makes providers advertise
// proper subsets of the query classes.
func (c Config) Heterogeneous() bool {
	return c.CapabilitySelectivity > 0 && c.CapabilitySelectivity < 1
}

// CapabilityCount returns how many query classes a specialist provider
// advertises under the current selectivity: max(1, round(s·|classes|)).
func (c Config) CapabilityCount() int {
	n := len(c.QueryClasses)
	if !c.Heterogeneous() {
		return n
	}
	// Heterogeneous means s < 1, so m ≤ n.
	m := int(c.CapabilitySelectivity*float64(n) + 0.5)
	if m < 1 {
		m = 1
	}
	return m
}

// ClassWeights returns the query-class popularity weights induced by
// ClassSkew (weight_i ∝ 1/(i+1)^skew), or nil for the paper's uniform mix.
func (c Config) ClassWeights() []float64 {
	if c.ClassSkew <= 0 || len(c.QueryClasses) < 2 {
		return nil
	}
	w := make([]float64, len(c.QueryClasses))
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), c.ClassSkew)
	}
	return w
}

// MeanQueryUnitsWeighted returns the expected treatment units of one query
// under the ClassSkew-induced class mix (equal to MeanQueryUnits when the
// mix is uniform). The arrival-rate calibration uses it so a workload
// fraction keeps meaning "offered work / total capacity" under skew.
func (c Config) MeanQueryUnitsWeighted() float64 {
	w := c.ClassWeights()
	if w == nil {
		return c.MeanQueryUnits()
	}
	var sum, wsum float64
	for i, qc := range c.QueryClasses {
		sum += w[i] * qc.Units
		wsum += w[i]
	}
	if wsum == 0 {
		return c.MeanQueryUnits()
	}
	return sum / wsum
}

// CapacityFor returns the service rate for a capacity class.
func (c Config) CapacityFor(level ClassLevel) float64 {
	switch level {
	case High:
		return c.HighCapacity
	case Medium:
		return c.HighCapacity / 3
	default:
		return c.HighCapacity / 7
	}
}

// MeanQueryUnits returns the expected treatment units of one query under a
// uniform class mix.
func (c Config) MeanQueryUnits() float64 {
	if len(c.QueryClasses) == 0 {
		return 0
	}
	sum := 0.0
	for _, qc := range c.QueryClasses {
		sum += qc.Units
	}
	return sum / float64(len(c.QueryClasses))
}

// Validate checks the configuration for structural errors.
func (c Config) Validate() error {
	var errs []error
	if c.Consumers < 1 {
		errs = append(errs, errors.New("config: need at least one consumer"))
	}
	if c.Providers < 1 {
		errs = append(errs, errors.New("config: need at least one provider"))
	}
	if c.ConsumerK < 1 || c.ProviderK < 1 {
		errs = append(errs, errors.New("config: window sizes must be >= 1"))
	}
	if len(c.QueryClasses) == 0 {
		errs = append(errs, errors.New("config: need at least one query class"))
	}
	for i, qc := range c.QueryClasses {
		if qc.Units <= 0 {
			errs = append(errs, fmt.Errorf("config: query class %d has non-positive units", i))
		}
	}
	if c.QueryN < 1 {
		errs = append(errs, errors.New("config: q.n must be >= 1"))
	}
	if c.HighCapacity <= 0 {
		errs = append(errs, errors.New("config: high capacity must be positive"))
	}
	if c.UtilizationWindow <= 0 {
		errs = append(errs, errors.New("config: utilization window must be positive"))
	}
	if c.Upsilon < 0 || c.Upsilon > 1 {
		errs = append(errs, errors.New("config: upsilon must be in [0,1]"))
	}
	if !(c.Epsilon > 0) {
		errs = append(errs, errors.New("config: epsilon must be > 0"))
	}
	if c.CapabilitySelectivity < 0 {
		errs = append(errs, errors.New("config: capability selectivity must be >= 0"))
	}
	if c.GeneralistShare < 0 || c.GeneralistShare > 1 {
		errs = append(errs, errors.New("config: generalist share must be in [0,1]"))
	}
	if c.ClassSkew < 0 {
		errs = append(errs, errors.New("config: class skew must be >= 0"))
	}
	for name, shares := range map[string][3]float64{
		"interest": c.InterestShares, "adaptation": c.AdaptShares, "capacity": c.CapacityShares,
	} {
		sum := shares[0] + shares[1] + shares[2]
		if sum < 0.999 || sum > 1.001 {
			errs = append(errs, fmt.Errorf("config: %s shares sum to %v, want 1", name, sum))
		}
	}
	return errors.Join(errs...)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
