package model

import (
	"testing"

	"sqlb/internal/randx"
)

func TestCanServeDefaultsToAllClasses(t *testing.T) {
	p := &Provider{}
	if !p.CanServe(0) || !p.CanServe(7) {
		t.Error("generalist must serve every class")
	}
	if p.CanServe(-1) {
		t.Error("negative class must never match")
	}
	if !p.Generalist() {
		t.Error("nil capability set must read as generalist")
	}
}

func TestSetCapabilities(t *testing.T) {
	p := &Provider{}
	p.SetCapabilities([]int{1, 3, 70}, 80)
	for class, want := range map[int]bool{0: false, 1: true, 2: false, 3: true, 70: true, 79: false, 80: false} {
		if got := p.CanServe(class); got != want {
			t.Errorf("CanServe(%d) = %v, want %v", class, got, want)
		}
	}
	if p.Generalist() {
		t.Error("explicit set must not read as generalist")
	}
	if got := p.CapabilityClasses(80); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 70 {
		t.Errorf("CapabilityClasses = %v, want [1 3 70]", got)
	}
	p.ClearCapabilities()
	if !p.CanServe(5) || !p.Generalist() {
		t.Error("ClearCapabilities must restore the all-classes default")
	}
	// Empty set with a positive total: serves nothing.
	p.SetCapabilities(nil, 4)
	if p.CanServe(0) || p.CanServe(3) {
		t.Error("empty capability set must serve nothing")
	}
}

func TestWithClasses(t *testing.T) {
	cfg := DefaultConfig().WithClasses(5)
	if len(cfg.QueryClasses) != 5 {
		t.Fatalf("classes = %d, want 5", len(cfg.QueryClasses))
	}
	if cfg.QueryClasses[0].Units != 130 || cfg.QueryClasses[4].Units != 150 {
		t.Errorf("units span %v..%v, want 130..150",
			cfg.QueryClasses[0].Units, cfg.QueryClasses[4].Units)
	}
	if got := cfg.MeanQueryUnits(); got != 140 {
		t.Errorf("mean units = %v, want the paper's 140", got)
	}
	if got := len(DefaultConfig().WithClasses(1).QueryClasses); got != 2 {
		t.Errorf("WithClasses(1) left %d classes, want the paper's 2 unchanged", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("WithClasses config invalid: %v", err)
	}
}

func TestHeterogeneousPopulationCapabilities(t *testing.T) {
	cfg := DefaultConfig().WithClasses(10)
	cfg.Consumers = 5
	cfg.Providers = 60
	cfg.CapabilitySelectivity = 0.2
	pop := NewPopulation(cfg, randx.New(17), 0)
	want := cfg.CapabilityCount()
	if want != 2 {
		t.Fatalf("CapabilityCount = %d, want 2 (0.2 × 10)", want)
	}
	if low := (Config{QueryClasses: cfg.QueryClasses, CapabilitySelectivity: 0.01}); low.CapabilityCount() != 1 {
		t.Fatalf("CapabilityCount = %d at 0.01 × 10, want at least one class", low.CapabilityCount())
	}
	for _, p := range pop.Providers {
		got := len(p.CapabilityClasses(10))
		if got != want {
			t.Errorf("provider %d advertises %d classes, want %d", p.ID, got, want)
		}
	}
}

func TestGeneralistShare(t *testing.T) {
	cfg := DefaultConfig().WithClasses(8)
	cfg.Consumers = 5
	cfg.Providers = 200
	cfg.CapabilitySelectivity = 0.25
	cfg.GeneralistShare = 0.5
	pop := NewPopulation(cfg, randx.New(23), 0)
	generalists := 0
	for _, p := range pop.Providers {
		if p.Generalist() {
			generalists++
		}
	}
	if generalists < 60 || generalists > 140 {
		t.Errorf("generalists = %d of 200, want ≈100 at share 0.5", generalists)
	}
}

func TestHomogeneousStreamUnperturbed(t *testing.T) {
	// The capability machinery must not consume RNG draws in the paper's
	// homogeneous setup: populations with and without the (inactive)
	// capability fields set must be identical.
	base := DefaultConfig()
	base.Consumers = 4
	base.Providers = 10
	withFields := base
	withFields.CapabilitySelectivity = 0 // inactive
	withFields.ClassSkew = 0
	a := NewPopulation(base, randx.New(31), 0)
	b := NewPopulation(withFields, randx.New(31), 0)
	for i := range a.Providers {
		if a.Providers[i].Reputation != b.Providers[i].Reputation ||
			a.Providers[i].Preference(0) != b.Providers[i].Preference(0) {
			t.Fatalf("provider %d diverged in the homogeneous setup", i)
		}
		if !b.Providers[i].Generalist() {
			t.Fatalf("provider %d not a generalist in the homogeneous setup", i)
		}
	}
	for i := range a.Consumers {
		if a.Consumers[i].Preference(a.Providers[0], 0) != b.Consumers[i].Preference(b.Providers[0], 0) {
			t.Fatalf("consumer %d diverged in the homogeneous setup", i)
		}
	}
}

func TestClassWeights(t *testing.T) {
	cfg := DefaultConfig().WithClasses(4)
	if cfg.ClassWeights() != nil {
		t.Error("zero skew must yield nil (uniform) weights")
	}
	cfg.ClassSkew = 1
	w := cfg.ClassWeights()
	if len(w) != 4 {
		t.Fatalf("weights len = %d, want 4", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing: w[%d]=%v >= w[%d]=%v", i, w[i], i-1, w[i-1])
		}
	}
	if w[0] != 1 || w[1] != 0.5 {
		t.Errorf("skew-1 weights = %v, want 1, 1/2, 1/3, 1/4", w[:2])
	}
	// Weighted mean units: skew favors class 0 (130 units), pulling the
	// mean below the uniform 140.
	if got := cfg.MeanQueryUnitsWeighted(); !(got < 140 && got > 130) {
		t.Errorf("weighted mean units = %v, want in (130,140)", got)
	}
	if got := DefaultConfig().MeanQueryUnitsWeighted(); got != 140 {
		t.Errorf("uniform weighted mean = %v, want 140", got)
	}
}

func TestConfigValidateCapabilityFields(t *testing.T) {
	bad := DefaultConfig()
	bad.CapabilitySelectivity = -0.1
	bad.GeneralistShare = 1.5
	bad.ClassSkew = -2
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid capability fields accepted")
	}
	good := DefaultConfig().WithClasses(6)
	good.CapabilitySelectivity = 0.1
	good.GeneralistShare = 0.2
	good.ClassSkew = 1.2
	if err := good.Validate(); err != nil {
		t.Fatalf("valid capability fields rejected: %v", err)
	}
}
