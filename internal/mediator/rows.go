package mediator

import (
	"math"
	"slices"

	"sqlb/internal/core"
	"sqlb/internal/intention"
	"sqlb/internal/model"
	"sqlb/internal/satisfaction"
)

// Rows are kept over a Pq of rowMinPq providers or more, up to rowMaxBytes
// of intentions in all; other mediations compute into scratch. A provider
// ID past maxShadow is a reputation mismatch on every sight.
const (
	rowMinPq    = 64
	rowMaxBytes = 32 << 20
	maxShadow   = 1 << 24
)

// ciRows keeps consumer-intention rows across mediations: CI⃗ of one
// consumer over one Pq and Equation 1 of it, grouped by Pq content id and
// reused while every input is unchanged: Pq (classes with the same set
// share an id), reputations (a shadow that providerIntentions checks) and
// the consumer's rowInputs. See docs/ARCHITECTURE.md, "Definition 7 and
// Equation 1: one row store". Tests read evals and bytes by name.
type ciRows struct {
	classPq [][]*model.Provider // the Pq each class was last gathered with
	classID []uint64            // its content id; 0 = no rows
	lastID  uint64
	shadow  []repShadow // by provider ID
	version uint64
	rows    map[uint64]map[*model.Consumer]*ciRow // by Pq id, then consumer
	bytes   int                                   // held by rows' intentions
	evals   uint64                                // Definition 7 evaluations
}

type (
	repShadow struct {
		p   *model.Provider
		rep uint64
	}
	ciRow struct {
		ci     []float64
		adq    float64
		ceil   float64 // max of ci (core.Split's Ceiling)
		inputs rowInputs
	}
	// rowInputs is what a row was computed from besides Pq: the store's
	// reputation version and its consumer's preference version, υ and ε.
	rowInputs struct{ version, pref, upsilon, epsilon uint64 }
)

// reshadow records p's reputation, which the provider gather found missing
// from the shadow or different there, and bumps the version.
func (s *ciRows) reshadow(p *model.Provider) {
	s.version++
	if id := p.ID; id >= 0 && id < maxShadow {
		if id >= len(s.shadow) {
			s.shadow = append(s.shadow, make([]repShadow, id+1-len(s.shadow))...)
		}
		s.shadow[id] = repShadow{p, math.Float64bits(p.Reputation)}
	}
}

// identify returns the content id of pq, just gathered for class of a
// population of classes, and drops the rows of an id no class holds any
// more. Only a class with an id keeps its Pq.
func (s *ciRows) identify(class, classes int, pq []*model.Provider) uint64 {
	if class < 0 || class >= classes {
		return 0
	}
	if n := classes - len(s.classID); n > 0 {
		s.classPq = append(s.classPq, make([][]*model.Provider, n)...)
		s.classID = append(s.classID, make([]uint64, n)...)
		s.rows, s.bytes = make(map[uint64]map[*model.Consumer]*ciRow), 0 // a larger population: start over
	}
	old, id := s.classID[class], uint64(0)
	if slices.Equal(s.classPq[class], pq) {
		return old
	}
	s.classPq[class] = s.classPq[class][:0]
	if len(pq) >= rowMinPq {
		if k := slices.IndexFunc(s.classPq, func(o []*model.Provider) bool { return slices.Equal(o, pq) }); k >= 0 {
			id = s.classID[k]
		} else {
			s.lastID++
			id = s.lastID
		}
		s.classPq[class] = append(s.classPq[class], pq...)
	}
	if s.classID[class] = id; old != 0 && !slices.Contains(s.classID, old) {
		for _, r := range s.rows[old] {
			s.bytes -= 8 * len(r.ci)
		}
		delete(s.rows, old)
	}
	return id
}

// consumer returns q's consumer's intentions over pq, of content id id,
// Equation 1 over them and their maximum: its row, recomputed if an input
// changed and admitted if new and within the cap, or else computed into
// spare. A row is read-only outside the store.
func (s *ciRows) consumer(q *model.Query, pq []*model.Provider, id uint64, spare *[]float64) (ci []float64, adq, ceil float64) {
	if id == 0 {
		adq, ceil := s.compute(q, pq, spare)
		return *spare, adq, ceil
	}
	c := q.Consumer
	in := rowInputs{s.version, c.PreferenceVersion(), math.Float64bits(c.Upsilon), math.Float64bits(c.Epsilon)}
	group := s.rows[id]
	r := group[c]
	switch {
	case r != nil && r.inputs == in:
		return r.ci, r.adq, r.ceil
	case r == nil && s.bytes+8*len(pq) > rowMaxBytes:
		adq, ceil := s.compute(q, pq, spare)
		return *spare, adq, ceil
	case r == nil:
		if group == nil {
			group = make(map[*model.Consumer]*ciRow)
			s.rows[id] = group
		}
		r = &ciRow{}
		group[c], s.bytes = r, s.bytes+8*len(pq)
	}
	r.adq, r.ceil = s.compute(q, pq, &r.ci)
	r.inputs = in
	return r.ci, r.adq, r.ceil
}

// compute fills *ci, resized to len(pq), with Definition 7 (the consumer
// half of lines 2-5 of Algorithm 1) and returns Equation 1 of it, summed in
// Pq order (QueryAdequation's bits), and its maximum, NaN if it holds one.
func (s *ciRows) compute(q *model.Query, pq []*model.Provider, ci *[]float64) (adq, ceil float64) {
	c, v := q.Consumer, growFloats(*ci, len(pq))
	ceil = math.Inf(-1)
	for i, p := range pq {
		v[i] = intention.Consumer(c.Preference(p, q.Class), p.Reputation, c.Upsilon, c.Epsilon)
		ceil = core.Raise(ceil, v[i])
	}
	s.evals += uint64(len(pq))
	*ci = v
	return satisfaction.QueryAdequation(v), ceil
}
