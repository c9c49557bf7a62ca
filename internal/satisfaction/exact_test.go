package satisfaction

import (
	"math"
	"testing"

	"sqlb/internal/randx"
)

// The window relation: a window's reading is a function of the k values it
// holds, not of the order they came in or of what slid out before. These
// tests hold both halves of it after random prior histories — k identical
// values read that value exactly, and two windows whose last k values agree
// read the same bits.

// relationHistories is how many random prior histories each test runs.
const relationHistories = 200

// relationValues are the preferences a proposal's class stands for in the
// provider tracker tests: the edges of the domain, values just off them,
// and ordinary ones. A class past the table stands for 0, as
// Provider.Preference answers for a class the population does not define.
var relationValues = []float64{-1, -1 + 1e-12, -0.5 - 1e-13, -0.5, -0.3, 5e-324, 0.3, 1 - 1e-16, 1}

// proposalClass draws the class of a history's proposal: any of the table,
// and now and then one past it, a negative one or a huge one.
func proposalClass(rng *randx.Rand) int {
	switch rng.Uint64() % 16 {
	case 0:
		return len(relationValues)
	case 1:
		return -1
	case 2:
		return 1 << 40
	}
	return int(rng.Uint64() % uint64(len(relationValues)))
}

// proposer is a provider tracker fed proposals by class, as a ring is by
// Record and as a stream's view is by Advance and MarkPerformed.
type proposer struct {
	t       *ProviderTracker
	propose func(class int, performed bool)
}

// providerTrackers are the kinds of provider tracker the relation holds
// for: a lone ring, and the one view of a stream.
var providerTrackers = []struct {
	name string
	make func(k, priorSamples int) proposer
}{
	{"ring", func(k, ps int) proposer {
		t := NewProviderTracker(k, 0.5, ps)
		return proposer{t, func(class int, performed bool) {
			v := 0.0
			if class >= 0 && class < len(relationValues) {
				v = relationValues[class]
			}
			t.Record(v, performed)
		}}
	}},
	{"view", func(k, ps int) proposer {
		ts := make([]ProviderTracker, 1)
		s := NewStream(ts, relationValues, len(relationValues), k, 0.5, ps)
		return proposer{&ts[0], func(class int, performed bool) {
			s.Advance(class)
			if performed {
				ts[0].MarkPerformed()
			}
		}}
	}},
}

func sameTrackerReads(a, b *ProviderTracker) bool {
	return math.Float64bits(a.Adequation()) == math.Float64bits(b.Adequation()) &&
		math.Float64bits(a.Satisfaction()) == math.Float64bits(b.Satisfaction()) &&
		a.Proposed() == b.Proposed() && a.Performed() == b.Performed()
}

func TestProviderTrackerReadsKIdenticalExactly(t *testing.T) {
	for _, kind := range providerTrackers {
		rng := randx.New(0xe4ac7)
		for h := 0; h < relationHistories; h++ {
			k := 1 + int(rng.Uint64()%600)
			p := kind.make(k, int(rng.Uint64()%uint64(k+1)))
			for i := int(rng.Uint64() % uint64(3*k)); i > 0; i-- {
				p.propose(proposalClass(rng), rng.Uint64()%3 == 0)
			}
			class := int(rng.Uint64() % uint64(len(relationValues)))
			for i := 0; i < k; i++ {
				p.propose(class, true)
			}
			if want := Rate(relationValues[class]); p.t.Adequation() != want || p.t.Satisfaction() != want {
				t.Fatalf("%s history %d (k=%d): %d copies of %v read δa %v δs %v", kind.name, h, k, k, want, p.t.Adequation(), p.t.Satisfaction())
			}
		}
	}
}

// TestProviderTrackerReadsOnlyItsWindow feeds two trackers different
// histories and then the same k proposals, for each pair of kinds: a view
// reads as the ring it stands for.
func TestProviderTrackerReadsOnlyItsWindow(t *testing.T) {
	for _, ka := range providerTrackers {
		for _, kb := range providerTrackers {
			rng := randx.New(0x1a57)
			for h := 0; h < relationHistories; h++ {
				k := 1 + int(rng.Uint64()%40)
				ps := int(rng.Uint64() % uint64(k+1))
				a, b := ka.make(k, ps), kb.make(k, ps)
				for _, p := range []proposer{a, b} {
					for i := int(rng.Uint64() % uint64(3*k)); i > 0; i-- {
						p.propose(proposalClass(rng), rng.Uint64()%2 == 0)
					}
				}
				for i := 0; i < k; i++ {
					class, performed := proposalClass(rng), rng.Uint64()%2 == 0
					a.propose(class, performed)
					b.propose(class, performed)
				}
				if !sameTrackerReads(a.t, b.t) {
					t.Fatalf("%s vs %s history %d (k=%d): same last k proposals read (%v,%v) and (%v,%v)", ka.name, kb.name,
						h, k, a.t.Adequation(), a.t.Satisfaction(), b.t.Adequation(), b.t.Satisfaction())
				}
			}
		}
	}
}

func TestWindowReadsKIdenticalExactly(t *testing.T) {
	rng := randx.New(0x3d0)
	for h := 0; h < relationHistories; h++ {
		k := 1 + int(rng.Uint64()%600)
		w := NewWindow(k, 0.5, int(rng.Uint64()%uint64(k+1)))
		for i := int(rng.Uint64() % uint64(3*k)); i > 0; i-- {
			w.Push(rng.Float64())
		}
		v := rng.Float64() // an Equation 1-2 mean: not on the grid
		for i := 0; i < k; i++ {
			w.Push(v)
		}
		want := math.Round(v*(1<<54)) / (1 << 54)
		if got := w.Mean(); got != want || w.Len() != k {
			t.Fatalf("history %d (k=%d): %d copies of %v read %v, want %v", h, k, k, v, got, want)
		}
		if got, ok := w.RawMean(); !ok || got != want {
			t.Fatalf("history %d (k=%d): RawMean %v, want %v", h, k, got, want)
		}
	}
}

func TestWindowReadsOnlyItsWindow(t *testing.T) {
	rng := randx.New(0xb0b)
	for h := 0; h < relationHistories; h++ {
		k := 1 + int(rng.Uint64()%40)
		ps := int(rng.Uint64() % uint64(k+1))
		a, b := NewWindow(k, 0.5, ps), NewWindow(k, 0.5, ps)
		for _, w := range []*Window{a, b} {
			for i := int(rng.Uint64() % uint64(3*k)); i > 0; i-- {
				w.Push(rng.Float64())
			}
		}
		for i := 0; i < k; i++ {
			v := rng.Float64()
			a.Push(v)
			b.Push(v)
		}
		if math.Float64bits(a.Mean()) != math.Float64bits(b.Mean()) {
			t.Fatalf("history %d (k=%d): same last k values read %v and %v", h, k, a.Mean(), b.Mean())
		}
	}
}

// TestWindowGrid pins the push rounding: values outside [0,1] clamp to it,
// NaN reads as 0, and a value between grid points rounds to the nearer.
func TestWindowGrid(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{-0.5, 0}, {math.NaN(), 0}, {math.Inf(-1), 0}, {2, 1}, {math.Inf(1), 1},
		{0x1p-55, 0x1p-54}, {0x1p-56, 0}, {0.3, 0.3}, {1.0 / 3, math.Round((1.0/3)*(1<<54)) / (1 << 54)},
	} {
		w := NewWindow(1, 0.5, 0)
		w.Push(c.in)
		if got := w.Mean(); got != c.want {
			t.Errorf("Push(%v) reads %v, want %v", c.in, got, c.want)
		}
	}
}

// TestStreamEqualsRings drives a stream's views and a ring per member with
// the same random proposals — to every member, to a subset, to a Pq naming
// a member twice, with one or two performers, and direct Records — and
// holds every view to its ring's reads, before and after it leaves.
func TestStreamEqualsRings(t *testing.T) {
	rng := randx.New(0x57ea)
	for trial := 0; trial < 100; trial++ {
		const n = 5
		k, ps := 1+int(rng.Uint64()%12), int(rng.Uint64()%6)
		values := make([]float64, n*len(relationValues))
		for i := range values {
			values[i] = relationValues[rng.Uint64()%uint64(len(relationValues))]
		}
		views := make([]ProviderTracker, n)
		s := NewStream(views, values, len(relationValues), k, 0.5, ps)
		rings := make([]*ProviderTracker, n)
		for i := range rings {
			rings[i] = NewProviderTracker(k, 0.5, ps)
		}
		value := func(i, class int) float64 {
			if class < 0 || class >= len(relationValues) {
				return 0
			}
			return values[i*len(relationValues)+class]
		}
		for step := 0; step < 6*k; step++ {
			class := proposalClass(rng)
			var pq []int // member indexes, ascending
			switch op := rng.Uint64() % 8; {
			case op == 0: // a direct Record
				i, performed := int(rng.Uint64()%n), rng.Uint64()%2 == 0
				views[i].Record(value(i, class), performed)
				rings[i].Record(value(i, class), performed)
			case op == 1: // a Pq naming a member twice
				pq = []int{0, 1, 1, 2, 3, 4}
			case op < 4: // a subset
				for i := range n {
					if rng.Uint64()%3 != 0 {
						pq = append(pq, i)
					}
				}
			default:
				pq = []int{0, 1, 2, 3, 4}
			}
			if pq != nil {
				ts := make([]*ProviderTracker, len(pq))
				for j, i := range pq {
					ts[j] = &views[i]
				}
				whole := s.AdvanceOver(ts, class)
				for j, i := range pq {
					rings[i].Record(value(i, class), false)
					if !s.Member(ts[j]) {
						views[i].Record(value(i, class), false)
					}
				}
				members := 0
				for _, tr := range ts {
					if s.Member(tr) {
						members++
					}
				}
				if whole != (members == len(ts) && members == s.Live()) {
					t.Fatalf("trial %d step %d: Pq %v of %d members, %d live: whole %v", trial, step, pq, members, s.Live(), whole)
				}
				for range 1 + rng.Uint64()%2 {
					if len(pq) > 0 {
						i := pq[rng.Uint64()%uint64(len(pq))]
						views[i].MarkPerformed()
						rings[i].MarkPerformed()
					}
				}
			}
			if s.Version() != uint64(n-s.Live()) {
				t.Fatalf("trial %d step %d: version %d with %d of %d members left", trial, step, s.Version(), n-s.Live(), n)
			}
			for i := range views {
				if !sameTrackerReads(&views[i], rings[i]) {
					t.Fatalf("trial %d step %d (k=%d ps=%d): tracker %d (member %v) reads (%v,%v,%d,%d), ring (%v,%v,%d,%d)",
						trial, step, k, ps, i, s.Member(&views[i]),
						views[i].Adequation(), views[i].Satisfaction(), views[i].Proposed(), views[i].Performed(),
						rings[i].Adequation(), rings[i].Satisfaction(), rings[i].Proposed(), rings[i].Performed())
				}
			}
		}
	}
}
