package satisfaction

import (
	"math"
	"testing"

	"sqlb/internal/randx"
)

// Property tests for the O(1) ring buffers: Window and ProviderTracker keep
// running aggregates (sum, performed-sum, counts) that are updated
// incrementally as values slide in and out. The oracles below recompute
// every characteristic from scratch over a plain slice of the full history,
// so any drift in the incremental bookkeeping — a missed eviction, a wrong
// head wrap, a stale performed flag — shows up as a mismatch.

// windowOracle recomputes the prior-blended mean over the last k values of
// the full history.
type windowOracle struct {
	k            int
	prior        float64
	priorSamples int
	history      []float64
}

func (o *windowOracle) push(v float64) { o.history = append(o.history, v) }

func (o *windowOracle) window() []float64 {
	if len(o.history) <= o.k {
		return o.history
	}
	return o.history[len(o.history)-o.k:]
}

func (o *windowOracle) mean() float64 {
	w := o.window()
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	n := len(w)
	if n >= o.priorSamples {
		if n == 0 {
			return o.prior
		}
		return sum / float64(n)
	}
	return (o.prior*float64(o.priorSamples-n) + sum) / float64(o.priorSamples)
}

func (o *windowOracle) rawMean() (float64, bool) {
	w := o.window()
	if len(w) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	return sum / float64(len(w)), true
}

// trackerOracle recomputes Definitions 4-5 over the last k proposals of the
// full history.
type trackerOracle struct {
	k            int
	prior        float64
	priorSamples int
	history      []proposal
}

type proposal struct {
	rated     float64
	performed bool
}

func (o *trackerOracle) record(shown float64, performed bool) {
	o.history = append(o.history, proposal{rated: Rate(shown), performed: performed})
}

func (o *trackerOracle) window() []proposal {
	if len(o.history) <= o.k {
		return o.history
	}
	return o.history[len(o.history)-o.k:]
}

func (o *trackerOracle) adequation() float64 {
	w := o.window()
	sum := 0.0
	for _, e := range w {
		sum += e.rated
	}
	n := len(w)
	if n >= o.priorSamples {
		if n == 0 {
			return o.prior
		}
		return sum / float64(n)
	}
	return (o.prior*float64(o.priorSamples-n) + sum) / float64(o.priorSamples)
}

func (o *trackerOracle) satisfaction() float64 {
	w := o.window()
	perfSum, perfN := 0.0, 0
	for _, e := range w {
		if e.performed {
			perfSum += e.rated
			perfN++
		}
	}
	if len(w) < o.priorSamples {
		pw := float64(o.priorSamples - len(w))
		return (o.prior*pw + perfSum) / (pw + float64(perfN))
	}
	if perfN == 0 {
		return 0
	}
	return perfSum / float64(perfN)
}

// eq compares with a tolerance for the float drift the incremental sums
// accumulate relative to a fresh summation.
func eq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) < 1e-9
}

func TestWindowMatchesOracle(t *testing.T) {
	rng := randx.New(0x5eed)
	for trial := 0; trial < 50; trial++ {
		k := 1 + int(rng.Uint64()%20)
		priorSamples := int(rng.Uint64() % 10)
		prior := rng.Float64()
		w := NewWindow(k, prior, priorSamples)
		o := &windowOracle{k: k, prior: prior, priorSamples: priorSamples}
		if got, want := w.Mean(), o.mean(); !eq(got, want) {
			t.Fatalf("trial %d empty: Mean=%v oracle=%v (k=%d ps=%d)", trial, got, want, k, priorSamples)
		}
		steps := 3*k + int(rng.Uint64()%20)
		for i := 0; i < steps; i++ {
			v := rng.Float64()
			w.Push(v)
			o.push(v)
			if got, want := w.Mean(), o.mean(); !eq(got, want) {
				t.Fatalf("trial %d step %d: Mean=%v oracle=%v (k=%d ps=%d)", trial, i, got, want, k, priorSamples)
			}
			gr, gok := w.RawMean()
			wr, wok := o.rawMean()
			if gok != wok || !eq(gr, wr) {
				t.Fatalf("trial %d step %d: RawMean=(%v,%v) oracle=(%v,%v)", trial, i, gr, gok, wr, wok)
			}
			if w.Len() != len(o.window()) {
				t.Fatalf("trial %d step %d: Len=%d oracle=%d", trial, i, w.Len(), len(o.window()))
			}
		}
	}
}

func TestProviderTrackerMatchesOracle(t *testing.T) {
	rng := randx.New(0xfeed)
	for trial := 0; trial < 50; trial++ {
		k := 1 + int(rng.Uint64()%20)
		priorSamples := int(rng.Uint64() % 10)
		prior := rng.Float64()
		tr := NewProviderTracker(k, prior, priorSamples)
		o := &trackerOracle{k: k, prior: prior, priorSamples: priorSamples}
		steps := 3*k + int(rng.Uint64()%20)
		for i := 0; i < steps; i++ {
			shown := rng.Uniform(-1.2, 1.2) // exercise the clamp too
			performed := rng.Uint64()%3 != 0
			tr.Record(shown, performed)
			o.record(shown, performed)
			if got, want := tr.Adequation(), o.adequation(); !eq(got, want) {
				t.Fatalf("trial %d step %d: Adequation=%v oracle=%v (k=%d ps=%d)", trial, i, got, want, k, priorSamples)
			}
			if got, want := tr.Satisfaction(), o.satisfaction(); !eq(got, want) {
				t.Fatalf("trial %d step %d: Satisfaction=%v oracle=%v (k=%d ps=%d)", trial, i, got, want, k, priorSamples)
			}
			if got, want := tr.Proposed(), len(o.window()); got != want {
				t.Fatalf("trial %d step %d: Proposed=%d oracle=%d", trial, i, got, want)
			}
		}
	}
}

// TestArenaBackedEquivalence pins that consumer trackers whose rings are
// carved from one cohort block (InitConsumerCohort) read exactly — bit for
// bit — like lone ones fed the same allocations, and that neighbouring
// rings in the block do not bleed into each other: every step records into
// one tracker only, with its own intentions, and every tracker is read
// after it.
func TestArenaBackedEquivalence(t *testing.T) {
	const k, n = 7, 10
	cohort := make([]ConsumerTracker, n)
	InitConsumerCohort(cohort, make([]uint64, 2*k*n), 0.5, 3)
	lone := make([]*ConsumerTracker, n)
	for i := range lone {
		lone[i] = NewConsumerTracker(k, 0.5, 3)
	}
	rng := randx.New(42)
	intentions := make([]float64, 4)
	for step := 0; step < 40*k; step++ {
		i := int(rng.Uint64() % uint64(n))
		for j := range intentions {
			intentions[j] = rng.Uniform(-1, 1)
		}
		selected := []int{int(rng.Uint64() % 4)}
		cohort[i].RecordAllocation(intentions, selected, 2)
		lone[i].RecordAllocation(intentions, selected, 2)
		for j := range cohort {
			c, l := &cohort[j], lone[j]
			if math.Float64bits(c.Adequation()) != math.Float64bits(l.Adequation()) ||
				math.Float64bits(c.Satisfaction()) != math.Float64bits(l.Satisfaction()) || c.Queries() != l.Queries() {
				t.Fatalf("step %d tracker %d: cohort (%v,%v,%d) lone (%v,%v,%d)", step, j,
					c.Adequation(), c.Satisfaction(), c.Queries(), l.Adequation(), l.Satisfaction(), l.Queries())
			}
		}
	}
}

// TestCohortMatchesLoneTrackers pins that a tracker whose ring is a column
// of a cohort's block reads exactly — bit for bit — like a lone tracker fed
// the same proposals, whether the cohort's trackers record in lockstep (the
// layout's streaming case) or at diverging counts, and that no tracker's
// writes reach a neighbour's column.
func TestCohortMatchesLoneTrackers(t *testing.T) {
	rng := randx.New(0xc0407)
	for trial := 0; trial < 40; trial++ {
		k := 1 + int(rng.Uint64()%12)
		n := 1 + int(rng.Uint64()%9)
		priorSamples := int(rng.Uint64() % 6)
		lockstep := trial%2 == 0
		cohort := make([]ProviderTracker, n)
		InitCohort(cohort, k, 0.5, priorSamples)
		lone := make([]*ProviderTracker, n)
		for i := range lone {
			lone[i] = NewProviderTracker(k, 0.5, priorSamples)
		}
		record := func(i int) {
			shown := rng.Uniform(-1.2, 1.2)
			performed := rng.Uint64()%3 != 0
			cohort[i].Record(shown, performed)
			lone[i].Record(shown, performed)
		}
		for step := 0; step < 4*k; step++ {
			if lockstep {
				for i := range cohort {
					record(i)
				}
			} else {
				record(int(rng.Uint64() % uint64(n)))
			}
			for i := range cohort {
				c, l := &cohort[i], lone[i]
				if math.Float64bits(c.Adequation()) != math.Float64bits(l.Adequation()) ||
					math.Float64bits(c.Satisfaction()) != math.Float64bits(l.Satisfaction()) ||
					c.Proposed() != l.Proposed() || c.Performed() != l.Performed() {
					t.Fatalf("trial %d step %d tracker %d (k=%d n=%d lockstep=%v): cohort (%v,%v,%d,%d) lone (%v,%v,%d,%d)",
						trial, step, i, k, n, lockstep,
						c.Adequation(), c.Satisfaction(), c.Proposed(), c.Performed(),
						l.Adequation(), l.Satisfaction(), l.Proposed(), l.Performed())
				}
			}
		}
	}
}

// TestCohortLineMajor pins the layout itself: one lockstep sweep over a
// cohort writes line 0 of its block, tracker i's word at offset i: the
// rated value as an integer on the 2^-54 grid, the performed bit in the
// sign — including the rated value 0 of the lowest intention, whose word is
// the sign bit alone.
func TestCohortLineMajor(t *testing.T) {
	const k, n = 3, 5
	cohort := make([]ProviderTracker, n)
	InitCohort(cohort, k, 0.5, 0)
	shown := []float64{-1, -0.5, 0, 0.5, 1}
	for i := range cohort {
		cohort[i].Record(shown[i], i%2 == 0)
	}
	line := cohort[0].ring[:n]
	for i, w := range line {
		want := uint64(Rate(shown[i]) * (1 << 54))
		if i%2 == 0 {
			want |= performedBit
		}
		if w != want {
			t.Errorf("line 0 word %d = %#x, want %#x", i, w, want)
		}
	}
	if line[0] != performedBit {
		t.Errorf("performed proposal rated 0: word %#x, want the sign bit alone", line[0])
	}
	// Slide the rated-0 performed proposal out: it must leave both sums and
	// the performed count, as a positive rating would.
	for s := 0; s < k; s++ {
		cohort[0].Record(1, false)
	}
	if got := cohort[0].Performed(); got != 0 {
		t.Errorf("after eviction Performed() = %d, want 0", got)
	}
	if got := cohort[0].Adequation(); got != 1 {
		t.Errorf("after eviction Adequation() = %v, want 1", got)
	}
}
