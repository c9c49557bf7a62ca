package experiments

import (
	"testing"
)

// TestExperimentDeterminism: two labs with identical configurations emit
// byte-identical CSV artifacts — the property that makes recorded results
// (EXPERIMENTS.md) reproducible by anyone.
func TestExperimentDeterminism(t *testing.T) {
	run := func() map[string]string {
		lab := tinyLab()
		out := map[string]string{}
		for _, id := range []string{"fig4a", "fig4g", "fig4i", "fig5c", "table3"} {
			res, err := lab.Run(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, c := range res.Charts {
				out[c.ID] = c.CSV()
			}
			for _, tbl := range res.Tables {
				out[tbl.ID] = tbl.CSV()
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("artifact counts differ: %d vs %d", len(a), len(b))
	}
	for id, csv := range a {
		if b[id] != csv {
			t.Errorf("%s: CSV differs between identical labs", id)
		}
	}
}

// TestExperimentSeedSensitivity: a different base seed must actually change
// the simulated artifacts (guards against a seed that is silently ignored).
func TestExperimentSeedSensitivity(t *testing.T) {
	mk := func(seed uint64) string {
		cfg := tinyLab().Config()
		cfg.BaseSeed = seed
		lab := NewLab(cfg)
		res, err := lab.Run("fig4i")
		if err != nil {
			t.Fatalf("fig4i: %v", err)
		}
		return res.Charts[0].CSV()
	}
	if mk(11) == mk(12) {
		t.Error("different seeds produced identical sweep results")
	}
}

// TestLabConfigEcho verifies defaults are visible through the accessor.
func TestLabConfigEcho(t *testing.T) {
	lab := NewLab(Config{})
	cfg := lab.Config()
	if cfg.Model.Providers != 100 || cfg.Repeats != 2 {
		t.Errorf("accessor did not echo defaults: %+v", cfg)
	}
}
