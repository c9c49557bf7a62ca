package model

import (
	"math"
	"math/bits"

	"sqlb/internal/intention"
)

// IntentionAt returns pi_p(q), the raw provider intention of Definition 8,
// for a query of the given class at the given load reading: bit for bit
//
//	intention.Provider(p.Preference(class), load, p.SmoothSat, p.Epsilon)
//
// At load p.OperationalLoad(now) it is the exact in-process entrance to
// Definition 8 at time now; the mediation paths gather through
// IntentionOrBound and come back, at the load a bound was taken at, for
// the slots a strategy resolves: the exact value behind the bound,
// whatever has been assigned to the provider since. The definition's
// preference factor is kept from one call to the next with the exact
// inputs it was computed from, and is used again only while those keep
// their bits, so nothing has to announce a change: SetPreference, Smooth,
// or a direct write to Epsilon or SmoothSat all show up as a different
// key. It changes only when the provider re-assesses its satisfaction;
// almost every evaluation finds it. The load factor is computed on every
// call: most loads are backlogs, which move with every arrival.
//
// The entrances write the provider's own memo and nothing else, so the rule
// for calling them concurrently is the one for Assign or the trackers'
// Record: one goroutine per provider at a time, which the simulator's one
// event loop and the server lock already guarantee.
func (p *Provider) IntentionAt(class int, load float64) float64 {
	pi, _ := p.intention(class, load, false)
	return pi
}

// Exact is IntentionOrBound's deferredAt for a value that is not a bound.
const Exact = -1

// IntentionOrBound is IntentionAt at time now for a caller that can do
// with less of an unwilling provider: on Definition 8's negative branch it
// returns, instead of pi and its pow, intention.ProviderTerms.Bound
// whenever that has one to offer — a v with pi ≤ v ≤ −1, which clamps and
// rates like pi and ranks no lower. deferredAt is then the load reading v
// was taken at (clamped to the definition's domain, so ≥ 0), and
// IntentionAt(class, deferredAt) the pi it stands for. Everything else —
// the positive branch, a load factor that costs no pow — comes back exact,
// the bits of IntentionAt, with deferredAt Exact.
func (p *Provider) IntentionOrBound(class int, now float64) (v, deferredAt float64) {
	return p.intention(class, p.OperationalLoad(now), true)
}

// intention is the one evaluation behind the entrances above.
func (p *Provider) intention(class int, load float64, boundWillDo bool) (v, deferredAt float64) {
	pref := p.Preference(class)
	slot := p.memoSlot(class)
	if slot < 0 {
		return intention.Provider(pref, load, p.SmoothSat, p.Epsilon), Exact
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
	if boundWillDo {
		if b, ok := t.Bound(pf); ok {
			return b, t.Util
		}
	}
	return t.Intention(pf, t.LoadFactor()), Exact
}

// intentionMemo is what a provider keeps of its last Definition 8
// evaluations: every entry was computed under the clamped (δs, ε) recorded
// here, and a call that brings another pair empties them all first.
type intentionMemo struct {
	sat, epsilon float64
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
	clear(m.pref)
}

// factorMemo is one kept pow factor: the clamped preference it was computed
// from and the factor itself, stored as is for the positive branch of
// Definition 8 and negated for the negative one. Both branches' factors are
// strictly positive, so the sign tells the branch and the zero value is an
// empty entry. Were a factor ever to come out zero or NaN it would merely
// be recomputed on every call.
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
