package mediator

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/intention"
	"sqlb/internal/matchmaking"
	"sqlb/internal/model"
	"sqlb/internal/randx"
	"sqlb/internal/satisfaction"
)

// The row store is accepted on one ground: whatever has happened to the
// participants, every consumer intention a mediation reads, and the
// Equation 1 value it records, has the bits of Definition 7 and
// QueryAdequation evaluated from scratch. The byte-script interpreter
// below puts a population through arbitrary interleavings of everything
// that can change an input of a row — churn on the match index, lazy
// prunes, reputation feedback, direct writes to the exported fields,
// SetPreference on dense and hashed consumers, hostile floats — between
// mediations through both entrances, and compares after every mediation.

// rowFloats are the operands scripted writes draw from.
var rowFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-17, 0.1, 0.25, 0.5, 0.75, 1 - 1e-16, 1, 1 + 1e-16, 2,
	-0.3, -1, -2.5, 1e17, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

const rowTestClasses = 3

// rowTestPopulation has 100 providers, specialists among them, so each
// class's Pq sits a little above rowMinPq and churn moves it across; two
// consumers with a preference matrix and two with hashed preferences, all
// with υ < 1 so that reputations count; and consumer windows of one query
// without prior samples, so a consumer's Adequation reads back the last
// value recorded, bit for bit.
func rowTestPopulation() *model.Population {
	cfg := model.DefaultConfig().WithClasses(rowTestClasses)
	cfg.Consumers, cfg.Providers, cfg.Upsilon = 2, 100, 0.6
	cfg.CapabilitySelectivity, cfg.GeneralistShare = 0.67, 0.3
	cfg.ConsumerK, cfg.ProviderK, cfg.PriorSamples = 1, 8, 0
	pop := model.NewPopulation(cfg, randx.New(3), 0)
	cfg.HashedConsumerPrefs = true
	pop.Consumers = append(pop.Consumers, model.NewPopulation(cfg, randx.New(4), 0).Consumers...)
	return pop
}

// checkRows holds one mediation's consumer side to the definitions.
// checkAdq is false for a query a later query of the batch recorded over.
func checkRows(t *testing.T, step int, a *Allocation, checkAdq bool) {
	t.Helper()
	q := a.Query
	want := make([]float64, len(a.Pq))
	for i, p := range a.Pq {
		want[i] = intention.Consumer(q.Consumer.Preference(p, q.Class), p.Reputation, q.Consumer.Upsilon, q.Consumer.Epsilon)
	}
	if len(a.CI) != len(want) {
		t.Fatalf("step %d: %d consumer intentions over a Pq of %d", step, len(a.CI), len(want))
	}
	for i := range want {
		if math.Float64bits(a.CI[i]) != math.Float64bits(want[i]) {
			t.Fatalf("step %d consumer %d provider %d: CI %v, definition %v", step, q.Consumer.ID, a.Pq[i].ID, a.CI[i], want[i])
		}
	}
	adq := satisfaction.QueryAdequation(want)
	if got := q.Consumer.Tracker.Adequation(); checkAdq && math.Float64bits(got) != math.Float64bits(adq) {
		t.Fatalf("step %d consumer %d: recorded adequation %v, Equation 1 %v", step, q.Consumer.ID, got, adq)
	}
}

// runRowScript interprets script as operations on one population mediated
// by a Mediator on the match index and a Server on the capability scan: an
// opcode byte, then operand bytes as the operation needs them (missing
// operands read as zero).
func runRowScript(t *testing.T, script []byte) {
	t.Helper()
	next := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	value := func() float64 { return rowFloats[int(next())%len(rowFloats)] }
	pop := rowTestPopulation()
	provider := func() *model.Provider { return pop.Providers[int(next())%len(pop.Providers)] }
	consumer := func() *model.Consumer { return pop.Consumers[int(next())%len(pop.Consumers)] }
	query := func(id int) *model.Query {
		return &model.Query{ID: uint64(id), Consumer: consumer(), Class: int(next())%(rowTestClasses+2) - 1, Units: 130, N: 1 + int(next())%3}
	}
	index := matchmaking.BuildIndex(pop)
	med := New(allocator.NewSQLB())
	med.Match = index
	now := 0.0
	srv := NewServer(allocator.NewSQLB(), pop, 0, func() float64 { return now })
	srv.SetMatchmaker(ByCapability())
	for step := 0; len(script) > 0; step++ {
		switch next() % 12 {
		case 0, 1: // one query through Allocate
			if a, err := med.Allocate(now, query(step), pop); err == nil {
				checkRows(t, step, a, true)
			}
		case 2: // a batch through the server
			qs := make([]*model.Query, 1+int(next())%5)
			for i := range qs {
				qs[i] = query(step*8 + i)
			}
			results := srv.MediateBatch(context.Background(), qs)
			for i, r := range results {
				last := true
				for _, later := range qs[i+1:] {
					last = last && later.Consumer != qs[i].Consumer
				}
				if r.Err == nil {
					checkRows(t, step, r.Alloc, last)
				}
			}
		case 3: // an announced departure
			p := provider()
			p.Alive = false
			index.Remove(p)
		case 4: // a silent one: the index prunes it at its next lookup
			provider().Alive = false
		case 5: // a rejoin
			p := provider()
			p.Alive = true
			index.Add(p)
		case 6:
			provider().RecordFeedback(value(), value())
		case 7:
			provider().Reputation = value()
		case 8:
			consumer().Upsilon = value()
		case 9:
			consumer().Epsilon = value()
		case 10:
			consumer().SetPreference(int(next())%(len(pop.Providers)+1)-1, value())
		case 11:
			now += float64(next()) / 16
		}
	}
}

// rowSeedScripts start the property test and the fuzz corpus on the
// sequences most likely to catch a stale row: a mediation, one input
// changed, the same mediation again.
var rowSeedScripts = [][]byte{
	{},
	{0, 0, 1, 0, 0, 0, 1, 0},                               // the same row twice
	{0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0},                   // classes 0, 1, 0: two Pqs, two ids
	{0, 0, 1, 0, 7, 5, 6, 0, 0, 1, 0},                      // rep(p5) := 0.5
	{0, 1, 2, 0, 6, 9, 3, 5, 0, 1, 2, 0},                   // feedback on p9
	{0, 2, 1, 0, 8, 2, 13, 0, 2, 1, 0},                     // υ of consumer 2 := -1
	{0, 3, 1, 0, 9, 3, 4, 0, 3, 1, 0},                      // ε of consumer 3 := 0.1
	{0, 0, 2, 0, 10, 0, 8, 12, 0, 0, 2, 0},                 // dense SetPreference(p7)
	{0, 2, 2, 0, 10, 2, 8, 19, 0, 2, 2, 0},                 // hashed SetPreference(p7) := NaN
	{0, 0, 1, 0, 3, 0, 0, 0, 1, 0, 5, 0, 0, 0, 1, 0},       // p0 leaves and rejoins
	{0, 1, 2, 0, 4, 2, 0, 1, 2, 0, 2, 1, 1, 2, 0, 3, 1, 0}, // a silent departure, then a batch
	{2, 4, 0, 1, 0, 1, 2, 0, 2, 1, 0, 3, 3, 0, 7, 9, 1, 2, 4, 0, 1, 0, 1, 2, 0, 2, 1},
}

func TestConsumerRowsEqualDefinition(t *testing.T) {
	for _, s := range rowSeedScripts {
		runRowScript(t, s)
	}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 300; i++ {
		script := make([]byte, 1+r.Intn(160))
		r.Read(script)
		runRowScript(t, script)
	}
}

func FuzzConsumerRows(f *testing.F) {
	for _, s := range rowSeedScripts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("longer scripts only repeat shorter ones")
		}
		runRowScript(t, script)
	})
}

// TestConsumerPreferenceReadsNoClass pins what lets rows be shared by
// classes: Definition 7 as modelled reads no query class. If
// Consumer.Preference starts reading it, rows must be keyed on the class
// again.
func TestConsumerPreferenceReadsNoClass(t *testing.T) {
	pop := rowTestPopulation()
	for _, c := range pop.Consumers {
		for _, p := range pop.Providers {
			want := c.Preference(p, 0)
			for _, class := range []int{1, 2, rowTestClasses, -1, 1 << 40, math.MinInt} {
				if got := c.Preference(p, class); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("consumer %d provider %d: preference %v for class %d, %v for class 0", c.ID, p.ID, got, class, want)
				}
			}
		}
	}
}

// TestConsumerRowsAreShared checks the keys at work on the paper's
// population, where every class has the same Pq: one row per consumer
// whatever the class, kept across mediations, and recomputed (counted in
// Definition 7 evaluations) only when an input changes.
func TestConsumerRowsAreShared(t *testing.T) {
	pop := model.NewPopulation(model.DefaultConfig(), randx.New(9), 0)
	med := New(allocator.NewSQLB())
	med.Match = matchmaking.BuildIndex(pop)
	c := pop.Consumers[0]
	mediate := func(class int) {
		t.Helper()
		if _, err := med.Allocate(1, &model.Query{ID: 1, Consumer: c, Class: class, Units: 130, N: 1}, pop); err != nil {
			t.Fatal(err)
		}
	}
	evals := func(what string, want uint64) {
		t.Helper()
		if med.rows.evals != want {
			t.Fatalf("%s: %d Definition 7 evaluations, want %d", what, med.rows.evals, want)
		}
	}
	mediate(0)
	mediate(1)
	evals("both classes", 400)
	if n := rowCount(&med.rows); n != 1 {
		t.Fatalf("%d rows for one consumer over one Pq", n)
	}
	c.SetPreference(3, 0.2)
	mediate(1)
	evals("after SetPreference", 800)
	pop.Providers[7].Reputation = 0.1
	mediate(0)
	evals("after a reputation write", 1200)
	c.Upsilon = 0.5
	mediate(0)
	evals("after a υ write", 1600)
	mediate(1)
	evals("unchanged", 1600)
}

// rowCount is the number of rows the store holds over all Pq ids.
func rowCount(s *ciRows) int {
	n := 0
	for _, group := range s.rows {
		n += len(group)
	}
	return n
}
