package model

import (
	"math"
	"math/bits"

	"sqlb/internal/intention"
)

// Intention returns pi_p(q), the raw provider intention of Definition 8,
// for a query of the given class at time now: bit for bit
//
//	intention.Provider(p.Preference(class), p.OperationalLoad(now), p.SmoothSat, p.Epsilon)
//
// It is the one in-process entrance to Definition 8 (Mediator.Allocate and
// the server's batch turn both come through here), and it keeps the two pow
// factors of the definition from one call to the next. Each kept factor
// carries the exact inputs it was computed from and is used again only
// while those inputs keep their bits; otherwise intention.ProviderTerms
// recomputes it by the definition's own expression. Nothing has to announce a change: SetPreference, Smooth,
// Assign, a moving clock, or a direct write to Epsilon, SmoothSat or
// LoadHorizon all show up as a different key. The preference factor changes
// only when the provider re-assesses its satisfaction, so at |Pq| = 400
// almost every evaluation finds it; the load factor is found whenever the
// load reading repeats (an idle provider, or one whose window, not its
// backlog, sets the load between two assignments).
//
// Intention writes the provider's own memo and nothing else, so the rule
// for calling it concurrently is the one for Assign or the trackers' Record:
// one goroutine per provider at a time, which the Exec partition and the
// server lock already guarantee.
func (p *Provider) Intention(class int, now float64) float64 {
	pref, load := p.Preference(class), p.OperationalLoad(now)
	slot := p.memoSlot(class)
	if slot < 0 {
		return intention.Provider(pref, load, p.SmoothSat, p.Epsilon)
	}
	t := intention.NewProviderTerms(pref, load, p.SmoothSat, p.Epsilon)
	m := &p.memo
	if !sameBits(m.sat, t.Sat) || !sameBits(m.epsilon, t.Epsilon) {
		m.rekey(t.Sat, t.Epsilon)
	}
	pf, ok := m.pref[slot].lookup(t.Pref, t.Willing)
	if !ok {
		pf = t.PreferenceFactor()
		m.pref[slot].store(t.Pref, pf, t.Willing)
	}
	lf, ok := m.load.lookup(t.Util, t.Willing)
	if !ok {
		lf = t.LoadFactor()
		m.load.store(t.Util, lf, t.Willing)
	}
	return t.Intention(pf, lf)
}

// intentionMemo is what a provider keeps of its last Definition 8
// evaluations: every entry was computed under the clamped (δs, ε) recorded
// here, and a call that brings another pair empties them all first.
type intentionMemo struct {
	sat, epsilon float64
	// load is the load factor; it does not depend on the query class.
	load factorMemo
	// pref holds the preference factor of each advertised class, at the
	// index memoSlot gives. A class the provider does not advertise has no
	// entry: no sound matchmaker proposes it, and a population of
	// specialists over many classes would otherwise pay for rows it never
	// reads (2 000 providers × 128 classes serving one each: 4 MB of slots
	// for 2 000 that get used).
	pref []factorMemo
}

func (m *intentionMemo) rekey(sat, epsilon float64) {
	m.sat, m.epsilon = sat, epsilon
	m.load = factorMemo{}
	clear(m.pref)
}

// factorMemo is one kept pow factor: the input it was computed from (the
// clamped preference, or the load) and the factor itself, stored as is for
// the positive branch of Definition 8 and negated for the negative one.
// Both branches' factors are strictly positive, so the sign tells the
// branch and the zero value is an empty entry. Were a factor ever to come
// out zero or NaN it would merely be recomputed on every call.
type factorMemo struct {
	key    float64
	signed float64
}

func (f *factorMemo) lookup(key float64, willing bool) (factor float64, ok bool) {
	if !sameBits(f.key, key) {
		return 0, false
	}
	if willing {
		return f.signed, f.signed > 0
	}
	return -f.signed, f.signed < 0
}

func (f *factorMemo) store(key, factor float64, willing bool) {
	if !willing {
		factor = -factor
	}
	*f = factorMemo{key: key, signed: factor}
}

// sameBits is the memo's key comparison: identical bits in, identical bits
// out, with no case analysis over ±0 (and a NaN key, which the clamped
// inputs never are, could only miss).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// advertisedClasses counts the classes the provider both holds a preference
// for and advertises — the length of its preference-factor row.
func (p *Provider) advertisedClasses() int {
	if p.caps == nil {
		return len(p.prefs)
	}
	n := 0
	for c := range p.prefs {
		if p.CanServe(c) {
			n++
		}
	}
	return n
}

// memoSlot maps a class to its index in the preference-factor row: the
// class itself for a generalist, its rank within the capability set for a
// specialist. It is -1 for a class without an entry — one the population
// does not define or the provider does not advertise — and for a provider
// built by hand, which has no row.
func (p *Provider) memoSlot(class int) int {
	if class < 0 || class >= len(p.prefs) {
		return -1
	}
	slot := class
	if p.caps != nil {
		if !p.CanServe(class) {
			return -1
		}
		w := class / 64
		slot = bits.OnesCount64(p.caps[w] & (1<<(uint(class)%64) - 1))
		for _, word := range p.caps[:w] {
			slot += bits.OnesCount64(word)
		}
	}
	if slot >= len(p.memo.pref) {
		return -1
	}
	return slot
}

// ownMemoRow gives the provider an empty preference-factor row of its own,
// sized to its capability set; SetCapabilities and ClearCapabilities call it
// because the row NewPopulation carved was sized to the set it replaces.
func (p *Provider) ownMemoRow() {
	p.memo = intentionMemo{pref: make([]factorMemo, p.advertisedClasses())}
}
