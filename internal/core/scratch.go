package core

// Scratch is a reusable buffer set for the allocation hot path. The
// mediation loop (Algorithm 1) runs once per query and historically built
// every intermediate vector — scores, omegas, the top-n heap, the ranking —
// with a fresh make; at |Pq| = 400 that was ~20 KB per mediation. A Scratch
// owns those buffers and grows them to the population's high-water mark
// once, after which the whole scoring/ranking/selection pipeline is
// allocation-free.
//
// A Scratch is NOT safe for concurrent use: it belongs to exactly one
// mediation turn at a time (the mediator owns one; the server's mediation
// lock serializes turns). Slices handed out by the accessors — and the
// results of the ranking kernels — are valid until the next call that uses
// the same buffer. The zero value is ready to use: a one-off caller
// declares one on its stack and pays the allocations a fresh make would.
//
// Buffer assignments within one allocation turn (so callers and helpers do
// not trample each other): RankTop consumes F2, I1, and R1, and keeps its
// candidates' score bounds in a vector no accessor hands out; RankSplit
// consumes RankTop's and vectors of its own; SplitOf a list of its own;
// SelectTopN consumes I1; Select consumes I2. Strategy code uses F1 for its
// own vector (omegas, utilizations, bids or values).
type Scratch struct {
	f1, f2 []float64
	bounds []float64
	i1, i2 []int
	r1     []Ranked
	// RankSplit's and SplitOf's.
	cand, pos            []int
	posPI, posCI, omegas []float64
}

// F1 returns the first float buffer resized to n (contents unspecified;
// callers overwrite every slot).
func (s *Scratch) F1(n int) []float64 {
	s.f1 = growFloats(s.f1, n)
	return s.f1
}

// F2 returns the second float buffer resized to n. RankTop uses it
// for the score vector; since its scan prunes, only the slots of the
// candidates it evaluated hold their scores afterwards, the rest are stale.
func (s *Scratch) F2(n int) []float64 {
	s.f2 = growFloats(s.f2, n)
	return s.f2
}

// I1 returns the first index buffer resized to n. SelectTopN builds
// its heap — and therefore its result — in it.
func (s *Scratch) I1(n int) []int {
	s.i1 = growInts(s.i1, n)
	return s.i1
}

// I2 returns the second index buffer resized to n. Select carves the
// selected set from it.
func (s *Scratch) I2(n int) []int {
	s.i2 = growInts(s.i2, n)
	return s.i2
}

// R1 returns the ranking buffer resized to n.
func (s *Scratch) R1(n int) []Ranked {
	if cap(s.r1) < n {
		s.r1 = make([]Ranked, n)
	}
	s.r1 = s.r1[:n]
	return s.r1
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// sortIdx sorts idx in place under less without allocating. sort.Slice
// costs two heap allocations per call (the reflect-based swapper and the
// comparison closure), which the zero-alloc mediation path cannot afford.
// less must be a strict total order — callers embed an index tiebreak — so
// any correct sort produces the same unique permutation and byte-identity
// with the sort.Slice implementation is preserved by construction.
func sortIdx(idx []int, less func(a, b int) bool) {
	for len(idx) > 12 {
		p := partitionIdx(idx, less)
		// Recurse into the smaller half, loop on the larger: O(log n) stack.
		if p < len(idx)-p-1 {
			sortIdx(idx[:p], less)
			idx = idx[p+1:]
		} else {
			sortIdx(idx[p+1:], less)
			idx = idx[:p]
		}
	}
	// Insertion sort finishes small runs.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// partitionIdx performs a Lomuto partition around a median-of-three pivot
// and returns the pivot's final position.
func partitionIdx(idx []int, less func(a, b int) bool) int {
	m, last := len(idx)/2, len(idx)-1
	if less(idx[m], idx[0]) {
		idx[m], idx[0] = idx[0], idx[m]
	}
	if less(idx[last], idx[0]) {
		idx[last], idx[0] = idx[0], idx[last]
	}
	if less(idx[last], idx[m]) {
		idx[last], idx[m] = idx[m], idx[last]
	}
	idx[0], idx[m] = idx[m], idx[0]
	pivot := idx[0]
	i := 0
	for j := 1; j <= last; j++ {
		if less(idx[j], pivot) {
			i++
			idx[i], idx[j] = idx[j], idx[i]
		}
	}
	idx[0], idx[i] = idx[i], idx[0]
	return i
}
