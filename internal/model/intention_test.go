package model

import (
	"math"
	"math/rand"
	"testing"

	"sqlb/internal/intention"
	"sqlb/internal/randx"
	"sqlb/internal/satisfaction"
)

// Provider.Intention is accepted on one ground: whatever has happened to the
// provider, it returns the bits of the definition evaluated from scratch,
//
//	intention.Provider(p.Preference(c), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
//
// The script driver below puts one provider through arbitrary interleavings
// of everything that can change an input of Definition 8 and compares the
// two after every step; a property test feeds it random scripts, the fuzz
// target lets the fuzzer write them. A separate test poisons the memo to
// show that it is read at all, and that each kind of change misses it.
//
// IntentionOrBound goes through the same driver on its own ground
// (checkIntentionOrBound): exact bits, or a bound that is as good as them
// to everyone who does not rank on it.

// memoFloats are the operands scripted writes draw from: signed zeros,
// subnormals, the edges of each input's domain, the load threshold of the
// positive branch from both sides, out-of-range magnitudes, ±Inf and NaN.
var memoFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-310, 1e-17, -1e-17, 0.1, 0.25, 0.4, 0.5, 0.6,
	1 - 1e-16, 1, 1 + 1e-16, 2, 3, 60, -0.3, -1, -2.5, 1e17, -1e17, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

const memoTestClasses = 3

// memoTestProvider is a provider as NewPopulation lays it out (trackers,
// window, carved memo row), optionally a specialist.
func memoTestProvider(specialist bool) *Provider {
	cfg := DefaultConfig().WithClasses(memoTestClasses)
	cfg.Consumers, cfg.Providers = 1, 2
	if specialist {
		cfg.CapabilitySelectivity = 0.67 // two of three classes
	}
	return NewPopulation(cfg, randx.New(5), 0).Providers[0]
}

// checkIntention compares Intention with the definition on every class the
// script can name, plus classes the population does not define, twice over
// so that the second round reads what the first one kept.
func checkIntention(t *testing.T, p *Provider, now float64, step int) {
	t.Helper()
	for round := 0; round < 2; round++ {
		for _, c := range []int{0, 1, 2, -1, memoTestClasses, 1 << 40} {
			want := intention.Provider(p.Preference(c), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
			got := p.Intention(c, now)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d round %d class %d now %v: Intention = %v (%#x), definition = %v (%#x)\npref %v load %v sat %v eps %v",
					step, round, c, now, got, math.Float64bits(got), want, math.Float64bits(want),
					p.Preference(c), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
			}
		}
	}
}

// checkIntentionOrBound holds IntentionOrBound, on the same classes, to its
// contract: either Intention's exact bits, or a bound v with
// Intention ≤ v ≤ −1 that rates like it in a satisfaction window, together
// with the load reading at which IntentionAt gives those exact bits back.
func checkIntentionOrBound(t *testing.T, p *Provider, now float64, step int) {
	t.Helper()
	for _, c := range []int{0, 1, 2, -1, memoTestClasses, 1 << 40} {
		want := intention.Provider(p.Preference(c), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
		v, at := p.IntentionOrBound(c, now)
		if at == Exact {
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("step %d class %d now %v: IntentionOrBound = %v and calls it exact, definition = %v", step, c, now, v, want)
			}
			continue
		}
		if !(want <= v && v <= -1) || satisfaction.Rate(v) != satisfaction.Rate(want) {
			t.Fatalf("step %d class %d now %v: bound %v for intention %v\npref %v load %v sat %v eps %v",
				step, c, now, v, want, p.Preference(c), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
		}
		if got := p.IntentionAt(c, at); !(at >= 0) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d class %d now %v: bound taken at load %v, where IntentionAt = %v; definition = %v", step, c, now, at, got, want)
		}
	}
}

// runMemoScript interprets script as operations on one provider: an opcode
// byte, then operand bytes as the operation needs them (missing operands
// read as zero). check runs after every operation.
func runMemoScript(t *testing.T, script []byte, check func(t *testing.T, p *Provider, now float64, step int)) {
	t.Helper()
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	value := func() float64 { return memoFloats[int(next())%len(memoFloats)] }
	class := func() int { return int(next()) % (memoTestClasses + 1) } // one past the end included

	p := memoTestProvider(next()%2 == 1)
	now := 0.0
	check(t, p, now, -1)
	for step := 0; len(script) > 0; step++ {
		switch next() % 14 {
		case 0: // a short clock step: backlog-dominated loads move, window-dominated ones repeat
			now += float64(next()) / 64
		case 1: // past the utilization window: everything assigned ages out
			now += p.Util.Window() + 1
		case 2: // an ordinary assignment
			p.Assign(now, 100+float64(next()))
		case 3: // enough work to push the load over 1 (branch flip for pref > 0) ...
			p.Assign(now, p.Capacity*p.Util.Window()*(1+float64(next())/32))
		case 4: // ... and the wait that drains it back under
			if b := p.Backlog(now); b > 0 {
				now += b
			}
		case 5:
			p.SetPreference(class(), value())
		case 6:
			p.SmoothSat = value()
		case 7:
			p.Epsilon = value()
		case 8:
			p.LoadHorizon = value()
		case 9: // a re-assessment, after some proposals so the reading moved
			for i, n := 0, int(next())%8; i < n; i++ {
				p.Private.Record(p.Preference(i%memoTestClasses), i%2 == 0)
			}
			p.Smooth(float64(next())/255, now)
		case 10:
			p.SetCapabilities([]int{class(), class()}, memoTestClasses)
		case 11:
			p.ClearCapabilities()
		case 12: // a clock reading the simulator never produces; the clock itself stays put
			check(t, p, value(), step)
		case 13: // hostile work units
			p.Assign(now, value())
		}
		check(t, p, now, step)
	}
}

// memoSeedScripts start the property test and the fuzz corpus on the
// sequences the memo is most likely to get wrong: repeats, a branch flip in
// both directions, a key changed and changed back, and capability changes
// that move a class to another slot.
var memoSeedScripts = [][]byte{
	{},
	{0, 2, 10, 0, 1, 0, 1, 2, 20, 0, 3},
	{0, 5, 0, 8, 3, 0, 0, 4, 4, 0, 1, 3, 64, 4},         // pref 0.4; overload; drain; again
	{1, 5, 1, 8, 3, 9, 4, 6, 8, 6, 10, 6, 8},            // specialist; δs 0.4 → 0.6 → 0.4
	{0, 7, 0, 7, 25, 7, 12, 7, 24, 6, 25, 6, 1, 8, 25},  // ε and δs through 0, NaN, 1, −Inf
	{0, 10, 0, 2, 5, 2, 8, 10, 2, 2, 11, 10, 3, 3},      // slots move under the row
	{1, 13, 25, 0, 1, 13, 23, 12, 25, 12, 24, 1, 2, 50}, // NaN and +Inf work units, NaN and −Inf clocks
	{0, 9, 5, 200, 2, 9, 9, 7, 30, 0, 9, 3, 255},        // re-assessments
}

func TestProviderIntentionEqualsDefinition(t *testing.T) {
	both := func(t *testing.T, p *Provider, now float64, step int) {
		checkIntentionOrBound(t, p, now, step)
		checkIntention(t, p, now, step)
	}
	for _, s := range memoSeedScripts {
		runMemoScript(t, s, both)
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 400; i++ {
		script := make([]byte, 1+r.Intn(120))
		r.Read(script)
		runMemoScript(t, script, both)
	}
}

func FuzzProviderIntentionMemo(f *testing.F) {
	for _, s := range memoSeedScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("longer scripts only repeat shorter ones")
		}
		runMemoScript(t, script, checkIntention)
	})
}

func FuzzIntentionBound(f *testing.F) {
	for _, s := range memoSeedScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("longer scripts only repeat shorter ones")
		}
		runMemoScript(t, script, checkIntentionOrBound)
	})
}

// TestProviderIntentionMemoIsReadAndRevalidated scales the kept preference
// factor by two (exact in floating point) and reads the scaling back off
// the result: a repeat evaluation, a moved load and the bounded entrance
// therefore all used it and ran no pow for it; a changed preference, δs or
// ε recomputed it.
func TestProviderIntentionMemoIsReadAndRevalidated(t *testing.T) {
	p := memoTestProvider(false)
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
			t.Errorf("%s: Intention = %v, want %v", what, got, want)
		}
	}

	expect("first evaluation", p.Intention(0, 1), definition(1))
	bound, at := p.IntentionOrBound(0, 1)
	if at == Exact {
		t.Fatalf("an overloaded provider's intention %v was not deferred", bound)
	}
	poison()
	expect("repeat: preference factor kept", p.Intention(0, 1), 2*definition(1))
	expect("moved clock: preference factor kept", p.Intention(0, 2), 2*definition(2))
	if twice, _ := p.IntentionOrBound(0, 1); twice != 2*bound {
		t.Errorf("bound %v with the kept factor doubled, %v before: IntentionOrBound does not read the memo", twice, bound)
	}
	p.SetPreference(0, 0.7)
	expect("changed preference: recomputed", p.Intention(0, 2), definition(2))
	poison()
	p.SmoothSat = 0.3
	expect("changed δs: recomputed", p.Intention(0, 2), definition(2))
	poison()
	p.Epsilon = 0.5
	expect("changed ε: recomputed", p.Intention(0, 2), definition(2))

	// The other class has its own preference factor.
	p.SetPreference(1, -0.2)
	expect("second class, first evaluation", p.Intention(1, 2), definitionOf(1, 2))
	poison()
	expect("second class keeps its own preference factor", p.Intention(1, 2), definitionOf(1, 2))
	expect("first class keeps its own preference factor", p.Intention(0, 2), 2*definition(2))
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
	if got, want := bare.Intention(0, 1), intention.Provider(0, 0, 0.4, 1); got != want {
		t.Errorf("hand-built provider: Intention = %v, want %v", got, want)
	}
}

// TestOperationalLoadHorizonFallback: a provider whose LoadHorizon is not a
// positive number reads its backlog against DefaultConfig's horizon.
func TestOperationalLoadHorizonFallback(t *testing.T) {
	for _, h := range []float64{0, -1, math.NaN()} {
		p := memoTestProvider(false)
		ref := memoTestProvider(false)
		p.LoadHorizon, ref.LoadHorizon = h, DefaultConfig().LoadHorizon
		p.Assign(0, 20*p.Capacity)
		ref.Assign(0, 20*ref.Capacity)
		if got, want := p.OperationalLoad(1), ref.OperationalLoad(1); got != want || !(got > 1) {
			t.Errorf("LoadHorizon %v: load = %v, want the default horizon's %v", h, got, want)
		}
	}
}
