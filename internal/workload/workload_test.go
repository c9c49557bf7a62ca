package workload

import (
	"math"
	"testing"

	"sqlb/internal/model"
	"sqlb/internal/randx"
)

func TestConstantProfile(t *testing.T) {
	p := Constant(0.8)
	for _, tt := range []float64{0, 1, 1e6} {
		if got := p.Fraction(tt); got != 0.8 {
			t.Errorf("Fraction(%v) = %v, want 0.8", tt, got)
		}
	}
}

func TestRampProfile(t *testing.T) {
	r := Ramp{From: 0.3, To: 1.0, Duration: 100}
	tests := []struct{ t, want float64 }{
		{-5, 0.3}, {0, 0.3}, {50, 0.65}, {100, 1.0}, {500, 1.0},
	}
	for _, tt := range tests {
		if got := r.Fraction(tt.t); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Fraction(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	// Degenerate duration holds the target.
	if got := (Ramp{From: 0.3, To: 1, Duration: 0}).Fraction(0); got != 1 {
		t.Errorf("zero-duration ramp = %v, want To", got)
	}
}

func TestArrivalRate(t *testing.T) {
	// Paper scale: total capacity ≈ 400 providers, mean query 140 units.
	// At 100% workload λ = cap/140.
	cap := 20571.4
	if got := ArrivalRate(1.0, cap, 140); math.Abs(got-cap/140) > 1e-9 {
		t.Errorf("rate = %v, want %v", got, cap/140)
	}
	if got := ArrivalRate(0.5, cap, 140); math.Abs(got-cap/280) > 1e-9 {
		t.Errorf("half-workload rate = %v", got)
	}
	for _, bad := range [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}, {math.NaN(), 1, 1}} {
		if got := ArrivalRate(bad[0], bad[1], bad[2]); got != 0 {
			t.Errorf("degenerate ArrivalRate(%v) = %v, want 0", bad, got)
		}
	}
}

func TestGeneratorQueries(t *testing.T) {
	cfg := model.DefaultConfig()
	cfg.Consumers = 1
	cfg.Providers = 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)
	g := NewGenerator(cfg.QueryClasses, 1, randx.New(2))

	counts := map[int]int{}
	var lastID uint64
	for i := 0; i < 10000; i++ {
		q := g.Next(float64(i), pop.Consumers[0])
		if q.ID <= lastID {
			t.Fatal("query IDs must increase")
		}
		lastID = q.ID
		if q.Consumer != pop.Consumers[0] {
			t.Fatal("wrong consumer")
		}
		if q.N != 1 {
			t.Fatalf("q.n = %d, want 1", q.N)
		}
		if q.Units != cfg.QueryClasses[q.Class].Units {
			t.Fatalf("units %v do not match class %d", q.Units, q.Class)
		}
		if q.IssuedAt != float64(i) {
			t.Fatalf("IssuedAt = %v, want %v", q.IssuedAt, float64(i))
		}
		counts[q.Class]++
	}
	// Uniform class mix: both classes near 50%.
	frac := float64(counts[0]) / 10000
	if math.Abs(frac-0.5) > 0.03 {
		t.Errorf("class-0 fraction = %v, want ≈0.5", frac)
	}
	if g.Issued() != 10000 {
		t.Errorf("Issued = %d, want 10000", g.Issued())
	}
}

// TestGeneratorNextIntoMatchesNext pins that minting into caller-owned
// storage, reused for every query, gives the stream Next gives — under the
// uniform and the skewed class mix — and overwrites every field.
func TestGeneratorNextIntoMatchesNext(t *testing.T) {
	cfg := model.DefaultConfig().WithClasses(4)
	cfg.Consumers = 2
	cfg.Providers = 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)
	for _, skew := range []float64{0, 1} {
		cfg.ClassSkew = skew
		fresh := NewGenerator(cfg.QueryClasses, 2, randx.New(9))
		inPlace := NewGenerator(cfg.QueryClasses, 2, randx.New(9))
		fresh.SetClassWeights(cfg.ClassWeights())
		inPlace.SetClassWeights(cfg.ClassWeights())
		q := model.Query{ID: 1 << 40, Consumer: pop.Consumers[1], Class: 99, Units: -1, N: 7, IssuedAt: -1}
		for i := 0; i < 2000; i++ {
			c := pop.Consumers[i%2]
			want := fresh.Next(float64(i), c)
			inPlace.NextInto(&q, float64(i), c)
			if q != *want {
				t.Fatalf("skew %v query %d: NextInto %+v, Next %+v", skew, i, q, *want)
			}
		}
	}
}

func TestGeneratorQNFloor(t *testing.T) {
	g := NewGenerator([]model.QueryClass{{Units: 100}}, 0, randx.New(3))
	cfg := model.DefaultConfig()
	cfg.Consumers = 1
	cfg.Providers = 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)
	if q := g.Next(0, pop.Consumers[0]); q.N != 1 {
		t.Errorf("q.n = %d, want floored 1", q.N)
	}
}

func TestGeneratorClassWeights(t *testing.T) {
	cfg := model.DefaultConfig().WithClasses(4)
	cfg.Consumers = 1
	cfg.Providers = 1
	cfg.ClassSkew = 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)
	g := NewGenerator(cfg.QueryClasses, 1, randx.New(5))
	g.SetClassWeights(cfg.ClassWeights())

	counts := map[int]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next(float64(i), pop.Consumers[0]).Class]++
	}
	// Zipf(1) over 4 classes: P(0) = 1/(1+1/2+1/3+1/4) = 0.48.
	frac0 := float64(counts[0]) / 20000
	if math.Abs(frac0-0.48) > 0.03 {
		t.Errorf("class-0 fraction = %v, want ≈0.48 under skew 1", frac0)
	}
	for c := 1; c < 4; c++ {
		if counts[c] >= counts[c-1] {
			t.Errorf("class %d drawn %d ≥ class %d drawn %d; skew must rank popularity",
				c, counts[c], c-1, counts[c-1])
		}
	}
	if counts[3] == 0 {
		t.Error("least-popular class never drawn")
	}
}

func TestGeneratorWeightsEdgeCases(t *testing.T) {
	classes := []model.QueryClass{{Units: 100}, {Units: 200}}
	cfg := model.DefaultConfig()
	cfg.Consumers = 1
	cfg.Providers = 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)

	// Mis-sized, all-zero, and nil weight slices all restore uniform.
	for _, w := range [][]float64{{1, 2, 3}, {0, 0}, nil, {-1, -2}} {
		g := NewGenerator(classes, 1, randx.New(6))
		g.SetClassWeights(w)
		seen := map[int]bool{}
		for i := 0; i < 200; i++ {
			seen[g.Next(0, pop.Consumers[0]).Class] = true
		}
		if !seen[0] || !seen[1] {
			t.Errorf("weights %v: both classes should appear under the uniform fallback", w)
		}
	}

	// A zero-weight class is never drawn.
	g := NewGenerator(classes, 1, randx.New(7))
	g.SetClassWeights([]float64{0, 1})
	for i := 0; i < 200; i++ {
		if q := g.Next(0, pop.Consumers[0]); q.Class != 1 {
			t.Fatalf("zero-weight class drawn (class %d)", q.Class)
		}
	}
}

func TestGeneratorSingleClass(t *testing.T) {
	g := NewGenerator([]model.QueryClass{{Units: 42}}, 2, randx.New(4))
	cfg := model.DefaultConfig()
	cfg.Consumers = 1
	cfg.Providers = 1
	pop := model.NewPopulation(cfg, randx.New(1), 0)
	q := g.Next(1, pop.Consumers[0])
	if q.Class != 0 || q.Units != 42 || q.N != 2 {
		t.Errorf("unexpected query %+v", q)
	}
}
