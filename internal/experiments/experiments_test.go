package experiments

import (
	"strings"
	"testing"

	"sqlb/internal/model"
)

// tinyLab is a fast configuration for structural tests: 10 consumers /
// 20 providers, short horizons, one repetition, two workloads.
func tinyLab() *Lab {
	return NewLab(Config{
		Model:          model.DefaultConfig().Scale(0.05),
		Duration:       400,
		SweepDuration:  700,
		Repeats:        1,
		BaseSeed:       11,
		SampleInterval: 50,
		Workloads:      []float64{0.4, 0.8},
	})
}

func TestConfigDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Model.Providers != 100 || cfg.Repeats != 2 || len(cfg.Workloads) != 5 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.SampleInterval != cfg.Duration/50 {
		t.Errorf("sample interval = %v, want Duration/50", cfg.SampleInterval)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3",
		"fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f", "fig4g", "fig4h",
		"fig4i", "fig5a", "fig5b", "fig5c", "table3", "fig6",
	}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for i, id := range want {
		if Registry[i].ID != id {
			t.Errorf("registry[%d] = %q, want %q", i, Registry[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Errorf("Find(%q) failed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find should reject unknown IDs")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := tinyLab().Run("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTable1Scenario(t *testing.T) {
	res, err := tinyLab().Run("table1")
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("expected one table")
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != 5 {
		t.Fatalf("expected 5 providers, got %d rows", len(tbl.Rows))
	}
	// p5 (row index 4) is the only mutually-wanted provider: rank 1,
	// selected.
	if tbl.Rows[4][5] != "1" || tbl.Rows[4][6] != "yes" {
		t.Errorf("p5 should be rank 1 and selected: %v", tbl.Rows[4])
	}
	// q.n = 2: exactly two selected.
	sel := 0
	for _, r := range tbl.Rows {
		if r[6] == "yes" {
			sel++
		}
	}
	if sel != 2 {
		t.Errorf("selected %d providers, want 2", sel)
	}
}

func TestFig2Surface(t *testing.T) {
	res, err := tinyLab().Run("fig2")
	if err != nil {
		t.Fatalf("fig2: %v", err)
	}
	tbl := res.Tables[0]
	if len(tbl.Rows) != 21*21 {
		t.Fatalf("surface rows = %d, want 441", len(tbl.Rows))
	}
	// Spot-check corners via CSV content.
	csv := tbl.CSV()
	if !strings.Contains(csv, "1.0,0.0,1.0000") {
		t.Errorf("best corner (pref=1, ut=0) should yield intention 1")
	}
}

func TestFig3Surface(t *testing.T) {
	res, err := tinyLab().Run("fig3")
	if err != nil {
		t.Fatalf("fig3: %v", err)
	}
	if got := len(res.Tables[0].Rows); got != 11*11 {
		t.Fatalf("omega grid rows = %d, want 121", got)
	}
	if !strings.Contains(res.Tables[0].CSV(), "1.0,0.0,1.0000") {
		t.Error("ω(1,0) should be 1")
	}
}

func TestFigure4PanelsShareRuns(t *testing.T) {
	lab := tinyLab()
	a, err := lab.Run("fig4a")
	if err != nil {
		t.Fatalf("fig4a: %v", err)
	}
	// Second panel must reuse the memoized ramp bundle (no new sims): just
	// verify it succeeds quickly and has the same x grid.
	g, err := lab.Run("fig4g")
	if err != nil {
		t.Fatalf("fig4g: %v", err)
	}
	if len(a.Charts) != 1 || len(g.Charts) != 1 {
		t.Fatal("each panel produces one chart")
	}
	ca, cg := a.Charts[0], g.Charts[0]
	if len(ca.Series) != 3 || len(cg.Series) != 3 {
		t.Fatalf("expected 3 method series, got %d/%d", len(ca.Series), len(cg.Series))
	}
	if len(ca.Series[0].Points) == 0 {
		t.Fatal("empty series")
	}
	if ca.Series[0].Points[0].X != cg.Series[0].Points[0].X {
		t.Error("panels should share the sample grid")
	}
	if len(lab.cells) != 3 {
		t.Errorf("ramp bundle should hold 3 methods, has %d", len(lab.cells))
	}
}

func TestFig4iShape(t *testing.T) {
	lab := tinyLab()
	res, err := lab.Run("fig4i")
	if err != nil {
		t.Fatalf("fig4i: %v", err)
	}
	chart := res.Charts[0]
	byName := map[string][]float64{}
	for _, s := range chart.Series {
		for _, p := range s.Points {
			byName[s.Name] = append(byName[s.Name], p.Y)
		}
	}
	if len(byName["SQLB"]) != 2 {
		t.Fatalf("expected 2 workload points, got %v", byName)
	}
	// Response times positive everywhere.
	for name, ys := range byName {
		for _, y := range ys {
			if y <= 0 {
				t.Errorf("%s has non-positive response time %v", name, y)
			}
		}
	}
	// Capacity-based is the fastest at the high workload (the paper's
	// headline ordering).
	last := len(byName["SQLB"]) - 1
	if byName["Capacity based"][last] > byName["SQLB"][last] {
		t.Errorf("capacity-based (%v) should beat SQLB (%v) on captive response time",
			byName["Capacity based"][last], byName["SQLB"][last])
	}
}

func TestFig5cAndFig6ShareSweep(t *testing.T) {
	lab := tinyLab()
	c5, err := lab.Run("fig5c")
	if err != nil {
		t.Fatalf("fig5c: %v", err)
	}
	before := len(lab.cells)
	f6, err := lab.Run("fig6")
	if err != nil {
		t.Fatalf("fig6: %v", err)
	}
	if len(lab.cells) != before {
		t.Error("fig6 must reuse the full-autonomy sweep bundle")
	}
	for _, res := range []*Result{c5, f6} {
		for _, s := range res.Charts[0].Series {
			for _, p := range s.Points {
				if p.Y < 0 || p.Y > 100 {
					t.Errorf("%s: departure percentage %v out of range", res.ID, p.Y)
				}
			}
		}
	}
}

func TestTable3Structure(t *testing.T) {
	lab := tinyLab()
	res, err := lab.Run("table3")
	if err != nil {
		t.Fatalf("table3: %v", err)
	}
	tbl := res.Tables[0]
	// 3 methods × 3 reasons × 3 dimensions.
	if len(tbl.Rows) != 27 {
		t.Fatalf("rows = %d, want 27", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if len(r) != 7 {
			t.Fatalf("row width = %d, want 7: %v", len(r), r)
		}
		if !strings.HasSuffix(r[3], "%") || !strings.HasSuffix(r[6], "%") {
			t.Errorf("cells should be percentages: %v", r)
		}
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is slow")
	}
	lab := tinyLab()
	results, err := lab.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != len(Registry) {
		t.Fatalf("got %d results, want %d", len(results), len(Registry))
	}
	for _, r := range results {
		if len(r.Charts)+len(r.Tables) == 0 {
			t.Errorf("%s produced no output", r.ID)
		}
	}
}
