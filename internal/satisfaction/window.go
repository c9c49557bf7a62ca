// Package satisfaction implements the participant characterization model of
// SQLB (VLDB 2007), Section 3: adequation δa, satisfaction δs, and allocation
// satisfaction δas, each assessed over a sliding window of the k last
// interactions with the mediator.
//
// Intentions live in [-1,1] (Section 2); the characteristics live in [0,1]
// via the affine map r = (i+1)/2 applied inside Equations 1-2 and
// Definitions 4-5. Because the map is affine, mapping each recorded value and
// averaging is identical to averaging and then mapping; the trackers store
// mapped values, which also makes the 0.5 initial-satisfaction prior of the
// paper's experimental setup (Table 2) natural to express.
//
// Every window holds its values as integers on a grid of 2^-54 and sums
// them exactly (see sum), so a reading depends only on which values the
// window holds: k copies of one value read that value, and two windows
// whose last k values agree read the same bits, whatever came before.
package satisfaction

import (
	"math"
	"math/bits"
)

// Rate maps an intention i ∈ [-1,1] to the characteristic scale [0,1].
// Out-of-range inputs are clamped first: Section 2 fixes the expressed
// intention range even though the raw Def 7/8 formulas can exceed it.
func Rate(intention float64) float64 {
	return (Clamp(intention) + 1) / 2
}

// Clamp restricts an intention to the expressed range [-1,1] of Section 2.
func Clamp(intention float64) float64 {
	if math.IsNaN(intention) {
		return 0
	}
	if intention > 1 {
		return 1
	}
	if intention < -1 {
		return -1
	}
	return intention
}

// Window is a fixed-capacity sliding window over the k last recorded values
// with a virtual prior: until priorSamples real values have been recorded,
// the mean blends the prior in so that an empty window reports exactly the
// prior and early readings move smoothly away from it. This realizes the
// paper's "initialize them with a satisfaction value of 0.5, which evolves
// with their last k ... queries" (Section 6.1). With priorSamples == 0 the
// window is paper-literal: the mean of an empty set is 0 (Defs 4-5).
type Window struct {
	buf          []uint64 // grid values (see onGrid)
	head         int      // next slot to overwrite
	n            int
	sum          sum
	prior        float64
	priorSamples int
}

// NewWindow returns a window of capacity k (k >= 1) with the given prior
// and prior weight (in virtual samples).
func NewWindow(k int, prior float64, priorSamples int) *Window {
	k = max(k, 1)
	w := &Window{}
	w.init(make([]uint64, k), prior, priorSamples)
	return w
}

// init (re)initializes the window in place over buf, whose length is the
// capacity k.
func (w *Window) init(buf []uint64, prior float64, priorSamples int) {
	*w = Window{buf: buf, prior: prior, priorSamples: max(priorSamples, 0)}
}

// Push records a characteristic value v ∈ [0,1], evicting the oldest if
// the window is full. v is rounded to the nearest multiple of 2^-54; a
// value outside [0,1] is clamped to it, and NaN reads as 0.
func (w *Window) Push(v float64) {
	g, out := onGrid(v), uint64(0)
	if w.n == len(w.buf) {
		out = w.buf[w.head]
	} else {
		w.n++
	}
	w.buf[w.head] = g
	w.sum.move(int64(g) - int64(out))
	w.head++
	if w.head == len(w.buf) {
		w.head = 0
	}
}

// Mean returns the prior-blended mean of the window.
func (w *Window) Mean() float64 {
	return blend(w.sum, w.n, w.prior, w.priorSamples)
}

// RawMean returns the plain mean over recorded values and whether the window
// holds any value at all.
func (w *Window) RawMean() (float64, bool) {
	if w.n == 0 {
		return 0, false
	}
	return w.sum.mean(w.n), true
}

// Len returns the number of recorded values, and Cap the window capacity k.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity k.
func (w *Window) Cap() int { return len(w.buf) }

// blend computes the prior-weighted mean of n grid values summing to s.
func blend(s sum, n int, prior float64, priorSamples int) float64 {
	if n >= priorSamples {
		if n == 0 {
			return prior
		}
		return s.mean(n)
	}
	return (prior*float64(priorSamples-n) + s.float()) / float64(priorSamples)
}

// gridOne is the grid value of 1: values are held as integer multiples of
// 2^-54.
const gridOne = 1 << 54

// grid returns r, a Rate output, on the grid. Every Rate output is a
// multiple of 2^-54 already: (x+1)/2 with x+1 ≥ ½ is spaced by 2^-53 or
// more, and x+1 < ½ means x ∈ [−1, −½), where x+1 is exact and a multiple
// of 2^-53. So the conversion is exact. (It goes through int64, which is
// one instruction where a float64 to uint64 conversion is a branch.)
func grid(r float64) uint64 { return uint64(int64(r * gridOne)) }

// onGrid returns v clamped to [0,1] (NaN to 0) and rounded to the nearest
// grid value.
func onGrid(v float64) uint64 {
	switch {
	case !(v > 0):
		return 0
	case v >= 1:
		return gridOne
	}
	return uint64(int64(math.Round(v * gridOne)))
}

// sum is an unsigned 128-bit sum of grid values: k of them reach k·2^54,
// past 64 bits once k > 1023 (Config.Scale makes the provider window
// 500·factor).
type sum struct{ hi, lo uint64 }

func (s *sum) add(g uint64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, g, 0)
	s.hi += carry
}

// move adds d, a difference of two grid values.
func (s *sum) move(d int64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(d), 0)
	s.hi += uint64(d>>63) + carry // d sign-extended to 128 bits
}

func (s *sum) sub(g uint64) {
	var borrow uint64
	s.lo, borrow = bits.Sub64(s.lo, g, 0)
	s.hi -= borrow
}

// mean returns s/n for n ≥ 1 terms of at most 2^54 each (so s.hi < n): the
// integer quotient plus the remainder's fraction, which is exact whenever
// the terms are equal.
func (s sum) mean(n int) float64 {
	q, r := bits.Div64(s.hi, s.lo, uint64(n))
	return (float64(q) + float64(r)/float64(n)) / gridOne
}

// float returns s as a value (s·2^-54).
func (s sum) float() float64 { return (float64(s.hi)*0x1p64 + float64(s.lo)) / gridOne }
