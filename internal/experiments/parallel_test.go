package experiments

import (
	"testing"
)

// artifactSnapshot runs a representative slice of the suite — ramp panels,
// a captive sweep, the full-autonomy sweep, Table 3, and an extension
// table — and returns every produced CSV keyed by artifact ID.
func artifactSnapshot(t *testing.T, workers int) map[string]string {
	t.Helper()
	lab := NewLab(Config{
		Scale:          0.05,
		Duration:       400,
		SweepDuration:  700,
		Repeats:        4,
		BaseSeed:       11,
		SampleInterval: 50,
		Workloads:      []float64{0.4, 0.8},
		Workers:        workers,
	})
	out := map[string]string{}
	for _, id := range []string{"fig4a", "fig4g", "fig4i", "fig5c", "table3", "ext-omega"} {
		res, err := lab.RunAny(id)
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

// TestParallelLabDeterminism is the tentpole's contract: the same BaseSeed
// must yield byte-identical experiment artifacts no matter how many
// workers the Lab fans out over.
func TestParallelLabDeterminism(t *testing.T) {
	serial := artifactSnapshot(t, 1)
	parallel := artifactSnapshot(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("artifact counts differ: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for id, csv := range serial {
		if parallel[id] != csv {
			t.Errorf("%s: Workers=8 CSV differs from Workers=1", id)
		}
	}
}

// TestParallelLabDeterminismHeterogeneous extends the contract to the
// capability scenarios: with classes, selectivity, and skew enabled (and
// the ext-selectivity sweep included), Workers=1 and Workers=8 must still
// emit byte-identical artifacts.
func TestParallelLabDeterminismHeterogeneous(t *testing.T) {
	snapshot := func(workers int) map[string]string {
		lab := NewLab(Config{
			Scale:          0.05,
			Duration:       300,
			SweepDuration:  400,
			Repeats:        2,
			BaseSeed:       7,
			SampleInterval: 50,
			Workloads:      []float64{0.4, 0.8},
			Workers:        workers,
			Classes:        6,
			Selectivity:    0.34,
			ClassSkew:      1,
			Selectivities:  []float64{0.25, 1.0},
		})
		out := map[string]string{}
		for _, id := range []string{"fig4a", "fig4i", "fig5c", "ext-selectivity"} {
			res, err := lab.RunAny(id)
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
	serial := snapshot(1)
	parallel := snapshot(8)
	if len(serial) != len(parallel) {
		t.Fatalf("artifact counts differ: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for id, csv := range serial {
		if parallel[id] != csv {
			t.Errorf("%s: Workers=8 CSV differs from Workers=1 with classes enabled", id)
		}
	}
}

// TestSelectivitySweepShape: the sweep produces one row per (method,
// selectivity) and queries actually drop at low selectivity while the
// homogeneous end (selectivity 1) drops nothing.
func TestSelectivitySweepShape(t *testing.T) {
	// Scale 0.025 → 10 providers over 8 classes at selectivity 0.1 (one
	// class each): several classes end up unserved, so their queries hit
	// empty posting lists. The outcome is fixed by BaseSeed.
	lab := NewLab(Config{
		Scale:          0.025,
		Duration:       300,
		SweepDuration:  500,
		Repeats:        2,
		BaseSeed:       13,
		SampleInterval: 100,
		Selectivities:  []float64{0.1, 1.0},
	})
	res, err := lab.RunAny("ext-selectivity")
	if err != nil {
		t.Fatalf("ext-selectivity: %v", err)
	}
	if len(res.Charts) != 2 {
		t.Fatalf("charts = %d, want response + drops", len(res.Charts))
	}
	tbl := res.Tables[0]
	if got, want := len(tbl.Rows), 3*2; got != want {
		t.Fatalf("rows = %d, want %d (3 methods × 2 selectivities)", got, want)
	}
	var lowDrop, fullDrop string
	for _, row := range tbl.Rows {
		if row[0] == "SQLB" && row[1] == "10%" {
			if row[2] != "1/8" {
				t.Errorf("classes_advertised at 10%% = %q, want 1/8", row[2])
			}
			lowDrop = row[3]
		}
		if row[0] == "SQLB" && row[1] == "100%" {
			fullDrop = row[3]
		}
	}
	if fullDrop != "0.00%" {
		t.Errorf("homogeneous end dropped %s, want 0.00%%", fullDrop)
	}
	if lowDrop == "0.00%" || lowDrop == "" {
		t.Errorf("10%% selectivity dropped %q queries; expected drops with 10 providers × 8 classes", lowDrop)
	}
}

// TestWorkersDefault: an unset Workers resolves to a positive bound and a
// matching semaphore, and an explicit value is respected.
func TestWorkersDefault(t *testing.T) {
	lab := NewLab(Config{})
	if lab.cfg.Workers < 1 {
		t.Errorf("default Workers = %d, want >= 1", lab.cfg.Workers)
	}
	if cap(lab.sem) != lab.cfg.Workers {
		t.Errorf("semaphore capacity %d != Workers %d", cap(lab.sem), lab.cfg.Workers)
	}
	if got := NewLab(Config{Workers: 3}).Config().Workers; got != 3 {
		t.Errorf("explicit Workers = %d, want 3", got)
	}
}

// TestParallelLabSharesBundles: concurrent panels still hit the memoized
// bundles — the Figure 4 panels must not re-run their ramps when requested
// again, whatever the worker count.
func TestParallelLabSharesBundles(t *testing.T) {
	lab := NewLab(Config{
		Scale:          0.05,
		Duration:       300,
		SweepDuration:  300,
		Repeats:        2,
		BaseSeed:       3,
		SampleInterval: 50,
		Workloads:      []float64{0.4},
		Workers:        4,
	})
	if _, err := lab.Run("fig4a"); err != nil {
		t.Fatalf("fig4a: %v", err)
	}
	if got := len(lab.ramps); got != 3 {
		t.Fatalf("ramp bundle count = %d, want 3", got)
	}
	cells := make(map[string]*rampCell, len(lab.ramps))
	for k, v := range lab.ramps {
		cells[k] = v
	}
	if _, err := lab.Run("fig4g"); err != nil {
		t.Fatalf("fig4g: %v", err)
	}
	if got := len(lab.ramps); got != 3 {
		t.Fatalf("fig4g created new ramp bundles: %d", got)
	}
	for k, v := range lab.ramps {
		if cells[k] != v {
			t.Errorf("bundle %q was rebuilt", k)
		}
	}
}
