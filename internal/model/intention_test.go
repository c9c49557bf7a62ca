package model

import (
	"math"
	"testing"

	"sqlb/internal/intention"
	"sqlb/internal/randx"
)

// That IntentionAt and IntentionOrBound give Definition 8's bits
// whatever is done to a provider is checked where the mediation paths read
// them, against a naive Algorithm 1 (internal/mediator, FuzzMediation). The
// tests here hold the memo's own mechanics: that it is read, revalidated,
// and carved one entry per advertised class.

// memoTestProvider is a provider as NewPopulation lays it out (trackers,
// window, carved memo row).
func memoTestProvider() *Provider {
	cfg := DefaultConfig().WithClasses(3)
	cfg.Consumers, cfg.Providers = 1, 2
	return NewPopulation(cfg, randx.New(5), 0).Providers[0]
}

// TestProviderIntentionMemoIsReadAndRevalidated scales the kept preference
// factor by two (exact in floating point) and reads the scaling back off
// the result: a repeat evaluation, a moved load and the bounded entrance
// therefore all used it and ran no pow for it; a changed preference, δs or
// ε recomputed it.
func TestProviderIntentionMemoIsReadAndRevalidated(t *testing.T) {
	p := memoTestProvider()
	p.SetPreference(0, 0.6)
	p.SmoothSat = 0.4
	p.Assign(0, 10*p.Capacity) // ten seconds of backlog: the load follows the clock
	definitionOf := func(class int, now float64) float64 {
		return intention.Provider(p.Preference(class), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
	}
	definition := func(now float64) float64 { return definitionOf(0, now) }
	poison := func() { p.memo.pref[p.memoSlot(0)].signed *= 2 }
	expect := func(what string, got, want float64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: IntentionAt = %v, want %v", what, got, want)
		}
	}

	expect("first evaluation", p.IntentionAt(0, p.OperationalLoad(1)), definition(1))
	bound, at := p.IntentionOrBound(0, 1)
	if at == Exact {
		t.Fatalf("an overloaded provider's intention %v was not deferred", bound)
	}
	poison()
	expect("repeat: preference factor kept", p.IntentionAt(0, p.OperationalLoad(1)), 2*definition(1))
	expect("moved clock: preference factor kept", p.IntentionAt(0, p.OperationalLoad(2)), 2*definition(2))
	if twice, _ := p.IntentionOrBound(0, 1); twice != 2*bound {
		t.Errorf("bound %v with the kept factor doubled, %v before: IntentionOrBound does not read the memo", twice, bound)
	}
	p.SetPreference(0, 0.7)
	expect("changed preference: recomputed", p.IntentionAt(0, p.OperationalLoad(2)), definition(2))
	poison()
	p.SmoothSat = 0.3
	expect("changed δs: recomputed", p.IntentionAt(0, p.OperationalLoad(2)), definition(2))
	poison()
	p.Epsilon = 0.5
	expect("changed ε: recomputed", p.IntentionAt(0, p.OperationalLoad(2)), definition(2))

	// The other class has its own preference factor.
	p.SetPreference(1, -0.2)
	expect("second class, first evaluation", p.IntentionAt(1, p.OperationalLoad(2)), definitionOf(1, 2))
	poison()
	expect("second class keeps its own preference factor", p.IntentionAt(1, p.OperationalLoad(2)), definitionOf(1, 2))
	expect("first class keeps its own preference factor", p.IntentionAt(0, p.OperationalLoad(2)), 2*definition(2))
}

// TestProviderIntentionMemoRows checks the storage: NewPopulation carves one
// entry per advertised (provider, class) and no more, rows do not overlap,
// a specialist's classes map to consecutive slots, and a capability change
// after construction leaves the provider with a row of the right size
// outside the carved array.
func TestProviderIntentionMemoRows(t *testing.T) {
	cfg := DefaultConfig().WithClasses(70) // capability sets span two bitset words
	cfg.Consumers, cfg.Providers = 1, 50
	cfg.CapabilitySelectivity = 0.1
	cfg.GeneralistShare = 0.2
	pop := NewPopulation(cfg, randx.New(3), 0)
	seen := map[*factorMemo]int{}
	generalists := 0
	for _, p := range pop.Providers {
		want := cfg.CapabilityCount()
		if p.Generalist() {
			want = len(cfg.QueryClasses)
			generalists++
		}
		if len(p.memo.pref) != want || cap(p.memo.pref) != want {
			t.Fatalf("provider %d: row len %d cap %d, want %d", p.ID, len(p.memo.pref), cap(p.memo.pref), want)
		}
		for i := range p.memo.pref {
			if other, dup := seen[&p.memo.pref[i]]; dup {
				t.Fatalf("providers %d and %d share a memo entry", other, p.ID)
			}
			seen[&p.memo.pref[i]] = p.ID
		}
		next := 0
		for c := -1; c <= len(cfg.QueryClasses); c++ {
			slot := p.memoSlot(c)
			if !p.CanServe(c) || c >= len(cfg.QueryClasses) {
				if slot != -1 {
					t.Fatalf("provider %d: class %d has slot %d, want none", p.ID, c, slot)
				}
				continue
			}
			if slot != next {
				t.Fatalf("provider %d: class %d has slot %d, want %d", p.ID, c, slot, next)
			}
			next++
		}
	}
	if generalists == 0 || generalists == len(pop.Providers) {
		t.Fatalf("want a mixed population, got %d generalists of %d", generalists, len(pop.Providers))
	}

	p := pop.Providers[0]
	p.SetCapabilities([]int{3, 64, 69}, len(cfg.QueryClasses))
	if len(p.memo.pref) != 3 || p.memoSlot(64) != 1 || p.memoSlot(69) != 2 || p.memoSlot(4) != -1 {
		t.Errorf("after SetCapabilities: row %d, slots %d %d %d", len(p.memo.pref), p.memoSlot(64), p.memoSlot(69), p.memoSlot(4))
	}
	p.ClearCapabilities()
	if len(p.memo.pref) != len(cfg.QueryClasses) || p.memoSlot(69) != 69 {
		t.Errorf("after ClearCapabilities: row %d, slot(69) %d", len(p.memo.pref), p.memoSlot(69))
	}
	for i := range p.memo.pref {
		if id, dup := seen[&p.memo.pref[i]]; dup {
			t.Fatalf("a row made after construction overlaps provider %d's carved row", id)
		}
	}

	// A provider built by hand has no row and still answers by the
	// definition.
	bare := &Provider{Capacity: 10, Epsilon: 1, SmoothSat: 0.4, Util: NewUtilizationWindow(60, 10, 0)}
	if got, want := bare.IntentionAt(0, bare.OperationalLoad(1)), intention.Provider(0, 0, 0.4, 1); got != want {
		t.Errorf("hand-built provider: IntentionAt = %v, want %v", got, want)
	}
}

// TestOperationalLoadHorizonFallback: a provider whose LoadHorizon is not a
// positive number reads its backlog against DefaultConfig's horizon.
func TestOperationalLoadHorizonFallback(t *testing.T) {
	for _, h := range []float64{0, -1, math.NaN()} {
		p := memoTestProvider()
		ref := memoTestProvider()
		p.LoadHorizon, ref.LoadHorizon = h, DefaultConfig().LoadHorizon
		p.Assign(0, 20*p.Capacity)
		ref.Assign(0, 20*ref.Capacity)
		if got, want := p.OperationalLoad(1), ref.OperationalLoad(1); got != want || !(got > 1) {
			t.Errorf("LoadHorizon %v: load = %v, want the default horizon's %v", h, got, want)
		}
	}
}
