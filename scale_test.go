// Population-scale smoke tests: the memory-layout work (bulk participant
// arrays, satisfaction arenas, hashed consumer preferences) exists so the
// system can hold 100k providers and 1M consumers; these tests actually
// build such cohorts and mediate over them, so a layout regression that
// only bites at scale (quadratic preference storage, per-object overhead
// creeping back) fails tier-1 rather than the next scale sweep.
package sqlb_test

import (
	"math"
	"reflect"
	"testing"

	"sqlb"
	"sqlb/internal/intention"
	"sqlb/internal/model"
)

// TestScale1MConsumersSmoke builds a 1M-consumer / 10k-provider population
// with hashed preferences and mediates a handful of queries over it. With
// stored preferences this cohort would need 1M × 10k × 8 B = 80 GB for the
// preference matrix alone; hashed mode keeps it to the participant arrays
// plus ring storage. The windows are kept small (the smoke checks layout,
// not satisfaction dynamics).
func TestScale1MConsumersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("population-scale smoke skipped in -short mode")
	}
	cfg := sqlb.DefaultConfig()
	cfg.Providers = 10_000
	cfg.Consumers = 1_000_000
	cfg.ProviderK = 20
	cfg.ConsumerK = 10
	cfg.PriorSamples = 5
	cfg.HashedConsumerPrefs = true
	pop := sqlb.NewPopulation(cfg, 41)
	if len(pop.Consumers) != cfg.Consumers || len(pop.Providers) != cfg.Providers {
		t.Fatalf("population sized %d/%d, want %d/%d",
			len(pop.Consumers), len(pop.Providers), cfg.Consumers, cfg.Providers)
	}

	// Hashed preferences: in-band, deterministic, and independent across
	// consumers (spot checks across the cohort).
	samples := []int{0, 1, 999_999, 500_000, 123_456}
	for _, ci := range samples {
		c := pop.Consumers[ci]
		for _, pi := range []int{0, 9_999, 4_242} {
			p := pop.Providers[pi]
			band := cfg.InterestBands[p.InterestClass]
			v := c.Preference(p, 0)
			if v < band[0] || v >= band[1] {
				t.Fatalf("consumer %d preference for provider %d = %v outside band %v", ci, pi, v, band)
			}
			if v2 := c.Preference(p, 1); v2 != v {
				t.Fatalf("hashed preference not stable: %v then %v", v, v2)
			}
		}
	}
	if a, b := pop.Consumers[0].Preference(pop.Providers[0], 0), pop.Consumers[1].Preference(pop.Providers[0], 0); a == b {
		t.Errorf("consumers 0 and 1 share a preference for provider 0 (%v) — seeds not independent", a)
	}

	// SetPreference must still work in hashed mode (scripted overrides).
	c := pop.Consumers[7]
	c.SetPreference(3, 0.75)
	if got := c.Preference(pop.Providers[3], 0); got != 0.75 {
		t.Fatalf("override not honored: got %v, want 0.75", got)
	}

	// Mediate a few queries over the full 10k-provider Pq: the paper's
	// pipeline end to end, just at population scale.
	med := sqlb.NewMediator(sqlb.NewSQLB())
	for i := 0; i < 5; i++ {
		q := &model.Query{
			ID:       uint64(i + 1),
			Consumer: pop.Consumers[i*200_000],
			Class:    i % len(pop.Classes),
			Units:    130,
			N:        2,
		}
		alloc, err := med.Allocate(float64(i), q, pop)
		if err != nil {
			t.Fatal(err)
		}
		if len(alloc.Selected) != 2 {
			t.Fatalf("mediation %d selected %d providers, want 2", i, len(alloc.Selected))
		}
	}

	// The mediator's consumer-intention rows are 80 KB each over this Pq:
	// the store admits rows up to its byte cap and no further, and a
	// consumer past it is still mediated on Definition 7's exact values.
	const rowCap = 32 << 20 // mediator.rowMaxBytes
	rows := reflect.ValueOf(med).Elem().FieldByName("rows")
	for i := 0; i < rowCap/(8*cfg.Providers)+20; i++ {
		c := pop.Consumers[999_999-i*7]
		q := &model.Query{ID: uint64(100 + i), Consumer: c, Class: i % 2, Units: 130, N: 1}
		alloc, err := med.Allocate(float64(5+i), q, pop)
		if err != nil {
			t.Fatal(err)
		}
		if bytes := rows.FieldByName("bytes").Int(); bytes > rowCap {
			t.Fatalf("after %d consumers the row store holds %d bytes, cap %d", i+1, bytes, rowCap)
		}
		if i%50 != 0 {
			continue
		}
		for j, p := range alloc.Pq {
			want := intention.Consumer(c.Preference(p, q.Class), p.Reputation, c.Upsilon, c.Epsilon)
			if math.Float64bits(alloc.CI[j]) != math.Float64bits(want) {
				t.Fatalf("consumer %d provider %d: CI %v, Definition 7 %v", c.ID, p.ID, alloc.CI[j], want)
			}
		}
	}
	n, it := 0, rows.FieldByName("rows").MapRange()
	for it.Next() {
		n += it.Value().Len()
	}
	if want := rowCap / (8 * cfg.Providers); n != want {
		t.Errorf("row store holds %d rows, want the %d that fit under its cap", n, want)
	}
}
