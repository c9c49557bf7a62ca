// Package workload generates the query workload of the paper's evaluation
// (Section 6.1): queries arrive in a Poisson process whose rate realizes a
// target workload expressed as a fraction of the total system capacity;
// each query belongs to one of the configured classes (130 or 150 treatment
// units) and is issued by a uniformly chosen alive consumer.
package workload

import (
	"sqlb/internal/model"
	"sqlb/internal/randx"
)

// Profile maps simulation time to the target workload fraction of total
// system capacity. The paper uses constant workloads (Figures 4(i), 5, 6,
// Table 3) and a uniform 30%→100% ramp (Figures 4(a)-(h)).
type Profile interface {
	Fraction(t float64) float64
}

// Constant is a fixed workload fraction.
type Constant float64

// Fraction implements Profile.
func (c Constant) Fraction(float64) float64 { return float64(c) }

// Ramp increases the workload linearly from From to To over [0, Duration],
// holding To afterwards — the Section 6.3.1 "starts with a workload of 30%
// that uniformly increases up to 100%".
type Ramp struct {
	From, To float64
	Duration float64
}

// Fraction implements Profile.
func (r Ramp) Fraction(t float64) float64 {
	if r.Duration <= 0 || t >= r.Duration {
		return r.To
	}
	if t <= 0 {
		return r.From
	}
	return r.From + (r.To-r.From)*(t/r.Duration)
}

// ArrivalRate converts a workload fraction into a Poisson arrival rate
// (queries/second): a workload of x means the offered work equals x times
// the total system capacity, so λ = x · totalCapacity / E[units per query].
// The reference capacity is the *initial* total capacity: when providers
// depart, the offered load stays, which is exactly how departures hurt the
// remaining system (Section 6.3.2). A NaN fraction offers no load, like a
// non-positive one: its rate would put NaN event times on the heap.
func ArrivalRate(fraction, totalCapacity, meanUnits float64) float64 {
	if !(fraction > 0) || totalCapacity <= 0 || meanUnits <= 0 {
		return 0
	}
	return fraction * totalCapacity / meanUnits
}

// Generator mints queries: the configured class mix (uniform by default,
// weighted under skew), the configured q.n, unique IDs, issued by the
// consumer the caller picked.
type Generator struct {
	classes []model.QueryClass
	queryN  int
	rng     *randx.Rand
	nextID  uint64
	// cum is the cumulative class-weight distribution; nil keeps the
	// paper's uniform mix (and the exact historical draw sequence).
	cum []float64
}

// NewGenerator returns a generator over the given classes with the desired
// q.n, drawing a uniform class mix from rng (the Section 6.1 workload).
func NewGenerator(classes []model.QueryClass, queryN int, rng *randx.Rand) *Generator {
	if queryN < 1 {
		queryN = 1
	}
	return &Generator{classes: classes, queryN: queryN, rng: rng}
}

// SetClassWeights switches the generator to a weighted class mix — the
// skewed-popularity scenarios (model.Config.ClassSkew). Weights need not
// be normalized; non-positive entries get zero probability. A nil or
// all-zero slice restores the uniform mix. The weighted path draws exactly
// one Float64 per query, so enabling weights changes the draw per query
// but never the number of draws.
func (g *Generator) SetClassWeights(weights []float64) {
	g.cum = nil
	if len(weights) != len(g.classes) {
		return
	}
	total := 0.0
	cum := make([]float64, len(weights))
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		return
	}
	for i := range cum {
		cum[i] /= total
	}
	g.cum = cum
}

// Next mints the next query for consumer c at time now.
func (g *Generator) Next(now float64, c *model.Consumer) *model.Query {
	q := new(model.Query)
	g.NextInto(q, now, c)
	return q
}

// NextInto mints the next query into q, overwriting it: the query Next
// would have returned, in storage the caller owns. The simulator mints
// every arrival into one Query this way, since nothing it keeps past the
// mediation points to the query.
func (g *Generator) NextInto(q *model.Query, now float64, c *model.Consumer) {
	g.nextID++
	class := g.pickClass()
	units := 0.0
	if class < len(g.classes) {
		units = g.classes[class].Units
	}
	*q = model.Query{
		ID:       g.nextID,
		Consumer: c,
		Class:    class,
		Units:    units,
		N:        g.queryN,
		IssuedAt: now,
	}
}

// pickClass draws the query class: uniformly (the historical stream) or by
// inverse-CDF over the configured weights.
func (g *Generator) pickClass() int {
	if g.cum != nil {
		u := g.rng.Float64()
		for i, c := range g.cum {
			if u < c {
				return i
			}
		}
		return len(g.cum) - 1
	}
	if len(g.classes) > 1 {
		return g.rng.Pick(len(g.classes))
	}
	return 0
}

// Issued returns how many queries have been minted.
func (g *Generator) Issued() uint64 { return g.nextID }
