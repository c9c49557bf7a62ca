package satisfaction

// ProviderTracker maintains the Section 3.2 characteristics of one provider
// over the k last queries proposed to it (the set PQ_p^k, vector PPI_p).
// Every proposed query records the provider's shown intention; the subset
// that the provider actually performed (SQ_p^k ⊆ PQ_p^k) additionally feeds
// its satisfaction. When an old proposal slides out of the window it leaves
// both aggregates, so SQ remains a true subset of PQ at all times.
//
// The same tracker is used twice in the system: fed with *intentions* at the
// mediator (the public view that the query-allocation method can see and
// that ω in Equation 6 relies on) and fed with *preferences* privately at
// the provider (the view Figures 4(b)-(c) measure and that Def 8's exponent
// and the departure decisions use). Section 3 notes the definitions apply to
// either with no technical difference.
//
// A tracker is a ring of its own, or a view of a Stream (NewStream,
// JoinShown): then it keeps no ring, and the stream's mediations are its
// proposals until it leaves (Detach) for a ring of its own.
type ProviderTracker struct {
	// ring holds the window's proposals as tracker words (see performedBit):
	// slot s is ring[s*stride], so a tracker of a cohort reads its own
	// column of the cohort's block (InitCohort) and a lone tracker has
	// stride 1.
	ring   []uint64
	pos    int // ring index of the next slot to overwrite
	stride int
	k      int
	n      int
	// propSum and perfSum are the exact sums of the windowed (and of the
	// performed) proposals' grid values, so a read depends on which
	// values the window holds, not on the order they came in.
	propSum      sum
	perfSum      sum
	perfN        int
	prior        float64
	priorSamples int
	// sat is δs, kept current: it moves only when a performed proposal
	// enters or leaves the window, or during the warm-up (a view's stream
	// recomputes it as it advances then), and ω reads it once per
	// candidate.
	sat float64
	// view is the tracker's stream membership; nil for a ring. A view
	// keeps perfSum and perfN, and a shown view propSum too; its
	// proposals are the stream's.
	view *member
}

// performedBit marks a tracker word whose proposal the provider performed.
// The rest of the word is the rated value on the grid (see grid), at most
// 2^54, so the sign bit is free: one 8-byte word per proposal.
const performedBit = 1 << 63

// NewProviderTracker returns a tracker with window capacity k over proposed
// queries, initial characteristic value prior, and a warm-up length of
// priorSamples *proposals*: while fewer than priorSamples queries have been
// proposed, both characteristics blend the prior in (realizing the paper's
// 0.5 initialization); once warm, Definitions 4-5 apply literally — in
// particular δs(p) is 0 when the performed subset SQ_p^k is empty, which is
// the mechanism behind the Figure 4(c) "punishment" of preference-blind
// allocation (a provider that rarely performs reads spells of zero
// satisfaction even when the queries it does get are fine).
func NewProviderTracker(k int, prior float64, priorSamples int) *ProviderTracker {
	ts := make([]ProviderTracker, 1)
	InitCohort(ts, k, prior, priorSamples)
	return &ts[0]
}

// InitCohort (re)initializes every tracker of ts in place, with the
// NewProviderTracker parameters, over one block of k·len(ts) words laid out
// line-major: line s holds slot s of every tracker, in the order of ts.
//
// The layout follows the result notification of Algorithm 1, which records
// one proposal into each provider of Pq in ascending ID order. Trackers that
// have seen the same number of proposals — the providers of one class's Pq
// that have always been proposed together — share the slot they write
// next, so a notification sweep writes consecutive words of one line
// instead of one cache line (and, at k = 500, one page) per tracker. Where
// the counts differ, a tracker still writes a single word, and neighbours in
// ts — a provider's public and private tracker — share its line.
func InitCohort(ts []ProviderTracker, k int, prior float64, priorSamples int) {
	if k < 1 {
		k = 1
	}
	if priorSamples < 0 {
		priorSamples = 0
	}
	stride := len(ts)
	block := make([]uint64, k*stride)
	for i := range ts {
		ts[i] = ProviderTracker{
			ring:         block[i : i+(k-1)*stride+1],
			stride:       stride,
			k:            k,
			prior:        prior,
			priorSamples: priorSamples,
		}
		ts[i].sat = ts[i].satisfaction()
	}
}

// Record adds one proposed query with the intention (or preference) the
// provider showed for it, and whether the provider performed it. A view
// leaves its stream first (Detach).
func (t *ProviderTracker) Record(shown float64, performed bool) {
	if t.view != nil {
		t.Detach()
	}
	g := grid(Rate(shown))
	moved := t.n < t.priorSamples // the warm-up blend moves with n
	var out uint64                // the rated value sliding out; none while the window fills
	if t.n == t.k {
		old := t.ring[t.pos]
		out = old &^ performedBit
		if old != out {
			t.perfSum.sub(out)
			t.perfN--
			moved = true
		}
	} else {
		t.n++
	}
	t.propSum.move(int64(g) - int64(out))
	if performed {
		t.perfSum.add(g)
		t.perfN++
		g |= performedBit
		moved = true
	}
	t.ring[t.pos] = g
	if t.pos += t.stride; t.pos >= len(t.ring) {
		t.pos = 0
	}
	if moved {
		t.sat = t.satisfaction()
	}
}

// MarkPerformed marks the proposal recorded last as performed; marking it
// again, or a tracker with no proposal, changes nothing. Result
// notification records every candidate's proposal first and marks the
// selected ones after, which keeps its performed decision O(n).
func (t *ProviderTracker) MarkPerformed() {
	if t.view != nil {
		t.view.s.perform(t)
		return
	}
	if t.n == 0 {
		return
	}
	last := t.pos - t.stride
	if last < 0 {
		last = (t.k - 1) * t.stride
	}
	if w := t.ring[last]; w&performedBit == 0 {
		t.ring[last] = w | performedBit
		t.perfSum.add(w)
		t.perfN++
		t.sat = t.satisfaction()
	}
}

// Adequation returns δa(p) (Definition 4) ∈ [0,1]: the mapped average of
// the provider's shown intentions over the k last proposed queries.
func (t *ProviderTracker) Adequation() float64 {
	if t.view != nil {
		return blend(t.proposed(), t.Proposed(), t.prior, t.priorSamples)
	}
	return blend(t.propSum, t.n, t.prior, t.priorSamples)
}

// Satisfaction returns δs(p) (Definition 5) ∈ [0,1]: the mapped average
// over the performed subset SQ_p^k, 0 when SQ is empty. During the warm-up
// (fewer than priorSamples proposals seen) the prior blends in with weight
// proportional to the remaining warm-up so the tracker starts at exactly
// the configured initial satisfaction.
func (t *ProviderTracker) Satisfaction() float64 { return t.sat }

// satisfaction computes δs from the window as Satisfaction documents it.
func (t *ProviderTracker) satisfaction() float64 {
	if n := t.Proposed(); n < t.priorSamples {
		w := float64(t.priorSamples - n)
		return (t.prior*w + t.perfSum.float()) / (w + float64(t.perfN))
	}
	if t.perfN == 0 {
		return 0
	}
	return t.perfSum.mean(t.perfN)
}

// AllocationSatisfaction returns δas(p) = δs(p)/δa(p) (Definition 6)
// ∈ [0,∞], with the same boundary conventions as the consumer variant.
func (t *ProviderTracker) AllocationSatisfaction() float64 {
	return allocationSatisfaction(t.Satisfaction(), t.Adequation())
}

// Proposed returns the number of proposals currently in the window (≤ k).
func (t *ProviderTracker) Proposed() int {
	if t.view != nil {
		return int(min(t.view.s.seq, uint64(t.k)))
	}
	return t.n
}

// Performed returns how many of the windowed proposals were performed.
func (t *ProviderTracker) Performed() int { return t.perfN }
