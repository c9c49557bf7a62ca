package satisfaction

import (
	"math/bits"
	"slices"
)

// Stream is the result notification of a population whose mediations all
// propose to the same providers — the paper's setup, where Pq is every
// provider — for both of a provider's windows. Each member tracker is a
// view of the stream, and what a view holds for one of the stream's
// mediations is either implied by the mediation or an explicit entry:
//
//   - A private window records Rate(prf_p(q)), which depends only on the
//     provider and q's class. A class view (NewStream) holds its value per
//     class, and the stream keeps the classes of the last k mediations once.
//   - A public window records Rate(pi_p(q)), and almost every candidate
//     shows pi ≤ −1, which rates 0. A shown view (JoinShown) holds 0 for a
//     mediation unless Show gives it another value.
//
// Explicit entries — a shown value other than 0, and every performance —
// sit in one FIFO in mediation order, and a view's sums move when one
// enters or expires. A mediation costs the stream O(1), plus O(1) per
// explicit entry, instead of one ring word per candidate and window; a
// class view reads in O(classes), a shown view in O(1).
//
// A view answers every read exactly as the ring it stands for: the window
// sums are the same integers (see sum), so the bits are the same. A member
// leaves for that ring (Detach) when the stream can no longer stand for
// it — a proposal it did not get, a preference change, a direct Record —
// and never comes back.
type Stream struct {
	k       int
	classes int     // the classes the class views' value tables cover; bucket classes is any other
	seq     uint64  // mediations so far; mediation s is the s-th, from 1
	hist    []int32 // bucket of mediation s at hist[s%k], for the last k
	count   []int   // per bucket, among the last min(k, seq) mediations
	// The explicit entries of the last k mediations form a FIFO in
	// mediation order. Entry number j, counting every push from 0, sits in
	// chunk j>>chunkBits, which is chunks[j>>chunkBits-base]; the live
	// ones are numbers head to tail-1, and start[s%k] is the number of
	// mediation s's first. The chunks a mediation's expiry frees are kept
	// as spares for its entries, and past that the FIFO keeps maxSpares
	// for its ebb and flow and gives the rest of a high-water mark back.
	chunks     []*chunk
	base       uint64
	spare      []*chunk
	start      []uint64
	head, tail uint64
	joined     []*ProviderTracker // every tracker that joined, by join index
	members    []*ProviderTracker // the same, leavers dropped lazily
	live       int
	version    uint64 // counts leavers
	round      uint64 // AdvanceOver's presence stamp
	// warming is the last mediation that moves a member's warm-up blend:
	// until then every member's δs is recomputed as the stream advances
	// (see ProviderTracker.sat).
	warming uint64
	// materialized counts the ring words class views wrote leaving, and
	// shownWords the shown views' explicit values and the ring words they
	// wrote leaving (tests read both).
	materialized, shownWords uint64
}

// member is a view's state.
type member struct {
	s      *Stream
	idx    uint32    // join index
	values []float64 // a class view's prf_p per class
	shown  bool      // a shown view: 0 unless Show says otherwise
	// last is the entry number of the view's newest entry, which belongs
	// to mediation lastSeq; lastSeq is 0 while it has none.
	last, lastSeq uint64
	// seen is the last AdvanceOver round that found the tracker among the
	// proposed.
	seen uint64
}

// chunkBits sizes a chunk of the FIFO: 2^8 entries, 3 KB. maxSpares is how
// many spent chunks it keeps. Both are small because the window's memory is
// what the garbage collector's goal doubles: at the paper's scale the FIFO
// holds 5 000 to 12 000 entries, and 1 024-entry chunks with as many spares
// as chunks held read 0.5 MB more peak RSS in the repository benchmark's
// serve-paper. Fewer spares make the FIFO's ebb and flow allocate: 4 added
// 16 bytes of garbage per mediation there, 16 about 4.
const (
	chunkBits = 8
	maxSpares = 16
)

// chunk holds 2^chunkBits consecutive entries of the FIFO: an explicit
// window word (see performedBit) and who holds it, 12 bytes an entry where
// a ring spends 8 on every word. who is the member's join index, with
// shownBit set for a shown view, or left when the member has left.
type chunk struct {
	words [1 << chunkBits]uint64
	who   [1 << chunkBits]uint32
}

const (
	shownBit = 1 << 31
	left     = 1<<32 - 1
)

// NewStream makes every tracker of ts a class view of one new stream, with
// the NewProviderTracker parameters and an empty window. Tracker i's value
// for a mediation of class c < classes is Rate(values[i*classes+c]), and
// Rate(0) for any other class; values must not change while i is a member
// (call Detach first).
func NewStream(ts []ProviderTracker, values []float64, classes, k int, prior float64, priorSamples int) *Stream {
	k, classes = max(k, 1), max(classes, 0)
	s := &Stream{
		k:       k,
		classes: classes,
		hist:    make([]int32, k),
		count:   make([]int, classes+1),
		start:   make([]uint64, k),
	}
	s.join(ts, prior, priorSamples, func(i int) member {
		return member{s: s, values: values[i*classes : (i+1)*classes : (i+1)*classes]}
	})
	return s
}

// JoinShown makes every tracker of ts a shown view of s, with the
// NewProviderTracker parameters and an empty window: its value for each
// of the stream's mediations is Rate(−1) = 0 unless Show gives another.
// Trackers join before the stream's first mediation.
func (s *Stream) JoinShown(ts []ProviderTracker, prior float64, priorSamples int) {
	if s.seq != 0 {
		panic("satisfaction: JoinShown after the stream's first mediation")
	}
	s.join(ts, prior, priorSamples, func(int) member { return member{s: s, shown: true} })
}

func (s *Stream) join(ts []ProviderTracker, prior float64, priorSamples int, view func(i int) member) {
	views := make([]member, len(ts))
	s.joined = slices.Grow(s.joined, len(ts))
	for i := range ts {
		views[i] = view(i)
		views[i].idx = uint32(len(s.joined))
		if views[i].shown {
			views[i].idx |= shownBit
		}
		ts[i] = ProviderTracker{k: s.k, prior: prior, priorSamples: max(priorSamples, 0), view: &views[i]}
		ts[i].sat = ts[i].satisfaction()
		s.joined = append(s.joined, &ts[i])
	}
	s.members = append(s.members, s.joined[len(s.joined)-len(ts):]...)
	s.warming = max(s.warming, uint64(min(max(priorSamples, 0), s.k)))
	s.live += len(ts)
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
	if n := len(s.spare); n > maxSpares {
		clear(s.spare[maxSpares:])
		s.spare = s.spare[:maxSpares]
	}
	if s.seq > uint64(s.k) {
		s.count[s.hist[slot]]--
		// Mediation seq−k leaves: its entries end where those of
		// mediation seq−k+1 begin, which is slot (seq+1)%k unless that
		// is this one's (k = 1).
		end := s.tail
		if s.k > 1 {
			end = s.start[(s.seq+1)%uint64(s.k)]
		}
		s.expire(end)
	}
	s.hist[slot] = b
	s.count[b]++
	s.start[slot] = s.tail
	if s.seq <= s.warming {
		for _, t := range s.members {
			if s.Member(t) {
				t.sat = t.satisfaction()
			}
		}
	}
}

// AdvanceOver records one mediation of class proposed to ts, trackers of
// a Pq that need not be the member set. Members missing from ts leave
// first, and so does every member of ts if ts names a tracker twice; then,
// if a member is left in ts, the stream advances. It reports whether ts is
// exactly the member set; otherwise the caller records the proposal into
// each tracker of ts that is no Member.
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

// Show gives shown view t the value Rate(shown) for the stream's last
// mediation, in place of 0. It does nothing before the first mediation or
// to a tracker that is no shown view of s; a view that did not get the
// mediation must have left (AdvanceOver) before it is shown anything.
func (s *Stream) Show(t *ProviderTracker, shown float64) {
	if !s.Member(t) || !t.view.shown || s.seq == 0 {
		return
	}
	g, v := grid(Rate(shown)), t.view
	if v.lastSeq == s.seq {
		w := s.word(v.last)
		old := *w &^ performedBit
		t.propSum.move(int64(g) - int64(old))
		if *w != old {
			t.perfSum.move(int64(g) - int64(old))
			t.sat = t.satisfaction()
		}
		*w = g | *w&performedBit
		return
	}
	if g != 0 {
		s.push(t, g)
		t.propSum.add(g)
		s.shownWords++
	}
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
	for m := first; m <= s.seq; m++ {
		slot, end := m%uint64(s.k), s.tail
		if m < s.seq {
			end = s.start[(m+1)%uint64(s.k)]
		}
		ring[m-first] = v.grid(s.hist[slot])
		for j := s.start[slot]; j < end; j++ {
			if w := s.whoAt(j); *w == v.idx {
				ring[m-first] = *s.word(j)
				*w = left
			}
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
	if v.shown {
		s.shownWords += uint64(n)
	} else {
		s.materialized += uint64(n)
	}
}

// perform marks member t's proposal of the last mediation performed.
func (s *Stream) perform(t *ProviderTracker) {
	v := t.view
	if s.seq == 0 {
		return
	}
	var g uint64
	if v.lastSeq == s.seq {
		w := s.word(v.last)
		if *w&performedBit != 0 {
			return
		}
		g = *w
		*w |= performedBit
	} else {
		g = v.grid(s.hist[s.seq%uint64(s.k)])
		s.push(t, g|performedBit)
	}
	t.perfSum.add(g)
	t.perfN++
	t.sat = t.satisfaction()
}

// push appends member t's word for the last mediation to the FIFO.
func (s *Stream) push(t *ProviderTracker, word uint64) {
	j := s.tail
	if c := j>>chunkBits - s.base; c == uint64(len(s.chunks)) {
		if n := len(s.spare); n > 0 {
			s.chunks, s.spare = append(s.chunks, s.spare[n-1]), s.spare[:n-1]
		} else {
			s.chunks = append(s.chunks, new(chunk))
		}
	}
	ch, at := s.chunks[j>>chunkBits-s.base], j&(1<<chunkBits-1)
	ch.words[at], ch.who[at] = word, t.view.idx
	t.view.last, t.view.lastSeq = j, s.seq
	s.tail++
}

// word returns entry number j's word, and whoAt who holds it.
func (s *Stream) word(j uint64) *uint64 {
	return &s.chunks[j>>chunkBits-s.base].words[j&(1<<chunkBits-1)]
}

func (s *Stream) whoAt(j uint64) *uint32 {
	return &s.chunks[j>>chunkBits-s.base].who[j&(1<<chunkBits-1)]
}

// expire drops the entries numbered below end from the FIFO and from their
// members' sums; it runs before the slot of hist they belong to is reused.
// An entry says itself whose it is and whether it still counts, so this
// reads the member's tracker only.
func (s *Stream) expire(end uint64) {
	for ; s.head < end; s.head++ {
		if who := *s.whoAt(s.head); who != left {
			t, w := s.joined[who&^shownBit], *s.word(s.head)
			g := w &^ performedBit
			if who&shownBit != 0 {
				t.propSum.sub(g)
			}
			if w != g {
				t.perfSum.sub(g)
				t.perfN--
				t.sat = t.satisfaction()
			}
		}
		if (s.head+1)&(1<<chunkBits-1) == 0 { // the FIFO moves past chunk 0
			s.spare = append(s.spare, s.chunks[0])
			s.chunks[0] = nil
			s.chunks, s.base = s.chunks[1:], s.base+1
		}
	}
}

// grid returns the member's value for a mediation of bucket b that gave it
// no explicit entry.
func (v *member) grid(b int32) uint64 {
	switch {
	case v.shown:
		return 0
	case int(b) < len(v.values):
		return grid(Rate(v.values[b]))
	}
	return grid(Rate(0))
}

// proposed returns the sum of the view's values over the stream's window.
func (t *ProviderTracker) proposed() sum {
	v := t.view
	if v.shown {
		return t.propSum
	}
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
