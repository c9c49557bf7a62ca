package sim

import (
	"math"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/workload"
)

// TestReputationFeedbackConverges exercises the feedback-driven reputation
// extension: with ratings flowing, a provider's reputation converges toward
// the mean consumer preference for it instead of staying at its static
// draw.
func TestReputationFeedbackConverges(t *testing.T) {
	cfg := model.DefaultConfig().Scale(0.1)
	cfg.ReputationFeedbackAlpha = 0.05
	opts := Options{
		Config:   cfg,
		Strategy: allocator.NewCapacityBased(), // preference-blind: every provider serves
		Workload: workload.Constant(0.7),
		Duration: 600,
		Seed:     17,
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pop := eng.Population()
	before := make([]float64, len(pop.Providers))
	for i, p := range pop.Providers {
		before[i] = p.Reputation
	}
	eng.Run()

	moved := 0
	for i, p := range pop.Providers {
		if p.Reputation != before[i] {
			moved++
			// Converged reputation must head toward the mean consumer
			// preference for this provider.
			mean := 0.0
			for _, c := range pop.Consumers {
				mean += c.Preference(p, 0)
			}
			mean /= float64(len(pop.Consumers))
			beforeDist := abs(before[i] - mean)
			afterDist := abs(p.Reputation - mean)
			if afterDist > beforeDist+0.25 {
				t.Errorf("provider %d reputation moved away from consumer consensus: %.2f → %.2f (mean pref %.2f)",
					p.ID, before[i], p.Reputation, mean)
			}
		}
	}
	if moved < len(pop.Providers)/2 {
		t.Errorf("only %d of %d reputations moved; feedback seems inert", moved, len(pop.Providers))
	}
}

// TestReputationStaticByDefault confirms the paper's setting: reputations
// stay at their static draw when the extension is off.
func TestReputationStaticByDefault(t *testing.T) {
	opts := Options{
		Config:   model.DefaultConfig().Scale(0.05),
		Strategy: allocator.NewCapacityBased(),
		Workload: workload.Constant(0.5),
		Duration: 200,
		Seed:     3,
	}
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	pop := eng.Population()
	before := make([]float64, len(pop.Providers))
	for i, p := range pop.Providers {
		before[i] = p.Reputation
	}
	eng.Run()
	for i, p := range pop.Providers {
		if p.Reputation != before[i] {
			t.Fatalf("provider %d reputation changed with feedback disabled", p.ID)
		}
	}
}

// TestRecordFeedbackGuards covers the clamping and alpha guards, and that
// only a write that changes the reputation's bits moves the population's
// reputation version.
func TestRecordFeedbackGuards(t *testing.T) {
	cfg := model.DefaultConfig()
	cfg.Consumers, cfg.Providers = 1, 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)
	p := pop.Providers[0]
	start, version := p.Reputation, pop.ReputationVersion()
	pop.RecordFeedback(p, 0.5, 0)  // alpha 0: ignored
	pop.RecordFeedback(p, 0.5, -1) // negative alpha: ignored
	pop.RecordFeedback(p, 0.5, 2)  // absurd alpha: ignored
	pop.SetReputation(p, start)    // the same bits
	if p.Reputation != start || pop.ReputationVersion() != version {
		t.Fatal("invalid alphas and an unchanged value must not move reputation or its version")
	}
	pop.RecordFeedback(p, 99, 1) // rating clamps to 1, alpha 1 snaps
	if p.Reputation != 1 || pop.ReputationVersion() != version+1 {
		t.Fatalf("reputation = %v at version %d, want clamped snap to 1 at %d", p.Reputation, pop.ReputationVersion(), version+1)
	}
	for _, r := range []float64{math.NaN(), math.NaN(), math.Copysign(0, -1), 0} {
		pop.SetReputation(p, r)
	}
	if pop.ReputationVersion() != version+4 {
		t.Fatalf("version %d after NaN, NaN, −0, +0; want %d (a NaN and a signed zero compare by their bits)", pop.ReputationVersion(), version+4)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
