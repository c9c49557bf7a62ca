package satisfaction

import "math/bits"

// Stream is the private side of the result notification for a population
// whose mediations all propose to the same providers — the paper's setup,
// where Pq is every provider. A private window records Rate(prf_p(q)),
// which depends only on the provider and q's class, so where every member
// got every proposal, its window is determined by the classes of the last
// k mediations and by which of them it performed. The stream keeps those
// classes once, and each member tracker is a view of it: a mediation costs
// the stream O(1), plus O(1) per performer (MarkPerformed) and per
// performance that expires, instead of one ring word per candidate; a
// read costs O(classes).
//
// A view answers every read exactly as the ring it stands for: the window
// sums are the same integers (see sum), so the bits are the same. A member
// leaves for that ring (Detach) when the stream can no longer stand for
// it — a proposal it did not get, a preference change, a direct Record —
// and never comes back.
type Stream struct {
	k       int
	classes int     // the classes the members' value tables cover; bucket classes is any other
	seq     uint64  // mediations so far; mediation s is the s-th, from 1
	hist    []int32 // bucket of mediation s at hist[s%k], for the last k
	count   []int   // per bucket, among the last min(k, seq) mediations
	// perf is a FIFO ring of the performances of the last k mediations,
	// perfLen of them from perfHead on, in mediation order.
	perf     []performance
	perfHead int
	perfLen  int
	members  []*ProviderTracker // joined, in join order; leavers dropped lazily
	live     int
	version  uint64 // counts leavers
	round    uint64 // AdvanceOver's presence stamp
	// materialized counts the ring words leavers wrote (tests read it).
	materialized uint64
}

// member is a view's state.
type member struct {
	s      *Stream
	values []float64 // prf_p per class
	// performed is the last mediation marked performed, seen the last
	// AdvanceOver round that found the tracker among the proposed.
	performed, seen uint64
}

type performance struct {
	seq uint64
	t   *ProviderTracker
}

// NewStream makes every tracker of ts a view of one new stream, with the
// NewProviderTracker parameters and an empty window. Tracker i's value for
// a mediation of class c < classes is Rate(values[i*classes+c]), and
// Rate(0) for any other class; values must not change while i is a member
// (call Detach first).
func NewStream(ts []ProviderTracker, values []float64, classes, k int, prior float64, priorSamples int) *Stream {
	k, classes = max(k, 1), max(classes, 0)
	s := &Stream{
		k:       k,
		classes: classes,
		hist:    make([]int32, k),
		count:   make([]int, classes+1),
		perf:    make([]performance, k),
		members: make([]*ProviderTracker, len(ts)),
		live:    len(ts),
	}
	views := make([]member, len(ts))
	for i := range ts {
		views[i] = member{s: s, values: values[i*classes : (i+1)*classes : (i+1)*classes]}
		ts[i] = ProviderTracker{k: k, prior: prior, priorSamples: max(priorSamples, 0), view: &views[i]}
		s.members[i] = &ts[i]
	}
	return s
}

// Live returns how many trackers are members.
func (s *Stream) Live() int { return s.live }

// Version changes whenever a member leaves, and only then.
func (s *Stream) Version() uint64 { return s.version }

// Member reports whether t is a view of s; a nil s has no member.
func (s *Stream) Member(t *ProviderTracker) bool {
	return s != nil && t.view != nil && t.view.s == s
}

// Advance records one mediation of class, proposed to every member.
func (s *Stream) Advance(class int) {
	b := int32(s.classes)
	if class >= 0 && class < s.classes {
		b = int32(class)
	}
	s.seq++
	slot := s.seq % uint64(s.k)
	if s.seq > uint64(s.k) {
		s.count[s.hist[slot]]--
		s.expire(s.seq - uint64(s.k))
	}
	s.hist[slot] = b
	s.count[b]++
}

// AdvanceOver records one mediation of class proposed to ts, the private
// trackers of a Pq that need not be the member set. Members missing from
// ts leave first, and so does every member of ts if ts names a tracker
// twice; then, if a member is left in ts, the stream advances. It reports
// whether ts is exactly the member set; otherwise the caller records the
// proposal into each tracker of ts that is no Member.
func (s *Stream) AdvanceOver(ts []*ProviderTracker, class int) bool {
	s.round++
	in, twice := 0, false
	for _, t := range ts {
		if s.Member(t) {
			twice = twice || t.view.seen == s.round
			t.view.seen = s.round
			in++
		}
	}
	if twice {
		for _, t := range ts {
			t.Detach()
		}
		return false
	}
	if in == 0 {
		return false
	}
	if in < s.live {
		kept := s.members[:0]
		for _, t := range s.members {
			switch {
			case !s.Member(t):
			case t.view.seen != s.round:
				t.Detach()
			default:
				kept = append(kept, t)
			}
		}
		clear(s.members[len(kept):])
		s.members = kept
	}
	s.Advance(class)
	return in == len(ts)
}

// Detach makes a view a ring of its own holding the same window, and
// leaves it so: it writes the k words of the mediations the view stands
// for. A ring, or a nil tracker, is left as it is.
func (t *ProviderTracker) Detach() {
	if t == nil || t.view == nil {
		return
	}
	v := t.view
	s, n := v.s, t.Proposed()
	first := s.seq + 1 - uint64(n) // the mediation of slot 0
	ring := make([]uint64, t.k)
	for j := range n {
		ring[j] = v.grid(s.hist[(first+uint64(j))%uint64(s.k)])
	}
	for i := range s.perfLen {
		if e := s.perf[(s.perfHead+i)%len(s.perf)]; e.t == t {
			ring[e.seq-first] |= performedBit
		}
	}
	*t = ProviderTracker{ring: ring, pos: n % t.k, stride: 1, k: t.k, n: n, prior: t.prior, priorSamples: t.priorSamples}
	for _, w := range ring[:n] {
		rated := w &^ performedBit
		t.propSum.add(rated)
		if w != rated {
			t.perfSum.add(rated)
			t.perfN++
		}
	}
	t.sat = t.satisfaction()
	s.live--
	s.version++
	s.materialized += uint64(n)
}

// perform marks member t's proposal of the last mediation performed.
func (s *Stream) perform(t *ProviderTracker) {
	v := t.view
	if s.seq == 0 || v.performed == s.seq {
		return
	}
	v.performed = s.seq
	if s.perfLen == len(s.perf) {
		grown := make([]performance, 2*len(s.perf))
		for i := range s.perfLen {
			grown[i] = s.perf[(s.perfHead+i)%len(s.perf)]
		}
		s.perf, s.perfHead = grown, 0
	}
	s.perf[(s.perfHead+s.perfLen)%len(s.perf)] = performance{s.seq, t}
	s.perfLen++
	t.perfSum.add(v.grid(s.hist[s.seq%uint64(s.k)]))
	t.perfN++
}

// expire drops the performances of mediations up to seq from the FIFO and
// from their members' sums; it runs before mediation seq's slot of hist is
// reused.
func (s *Stream) expire(seq uint64) {
	for s.perfLen > 0 {
		e := &s.perf[s.perfHead]
		if e.seq > seq {
			return
		}
		if t := e.t; s.Member(t) {
			t.perfSum.sub(t.view.grid(s.hist[e.seq%uint64(s.k)]))
			t.perfN--
		}
		*e = performance{}
		s.perfHead = (s.perfHead + 1) % len(s.perf)
		s.perfLen--
	}
}

// grid returns the member's value for a mediation of bucket b.
func (v *member) grid(b int32) uint64 {
	if int(b) < len(v.values) {
		return grid(Rate(v.values[b]))
	}
	return grid(Rate(0))
}

// proposed returns the sum of the member's values over the stream's
// window.
func (v *member) proposed() sum {
	var total sum
	for b, c := range v.s.count {
		if c > 0 {
			hi, lo := bits.Mul64(v.grid(int32(b)), uint64(c))
			var carry uint64
			total.lo, carry = bits.Add64(total.lo, lo, 0)
			total.hi += hi + carry
		}
	}
	return total
}
