package experiments

import (
	"strings"
	"testing"

	"sqlb/internal/model"
	"sqlb/internal/scenario"
)

// scenarioSnapshot runs the ext-scenarios sweep on two churn presets and
// returns its CSV artifacts keyed by ID.
func scenarioSnapshot(t *testing.T, workers int) map[string]string {
	t.Helper()
	lab := NewLab(Config{
		Model:         model.DefaultConfig().Scale(0.05),
		Duration:      300,
		SweepDuration: 600,
		Repeats:       2,
		BaseSeed:      17,
		Workers:       workers,
		Scenarios:     []string{"flash-crowd", "staged-churn"},
	})
	res, err := lab.RunAny("ext-scenarios")
	if err != nil {
		t.Fatalf("ext-scenarios: %v", err)
	}
	out := map[string]string{}
	for _, c := range res.Charts {
		out[c.ID] = c.CSV()
	}
	for _, tbl := range res.Tables {
		out[tbl.ID] = tbl.CSV()
	}
	return out
}

// TestScenarioSweepDeterminism extends the Lab's Workers-independence
// contract (TestParallelLabDeterminism) to the scenario sweep: with churn
// waves firing mid-run, Workers=1 and Workers=8 must still emit
// byte-identical artifacts — the scheduled-churn paths may not introduce
// any run-order sensitivity.
func TestScenarioSweepDeterminism(t *testing.T) {
	serial := scenarioSnapshot(t, 1)
	parallel := scenarioSnapshot(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("artifact counts differ: %d serial vs %d parallel", len(serial), len(parallel))
	}
	for id, csv := range serial {
		if parallel[id] != csv {
			t.Errorf("%s: Workers=8 CSV differs from Workers=1 under scenario churn", id)
		}
	}
}

// TestScenarioSweepShape: one table row per (scenario, method), one chart
// per scenario, and the churn columns carry the scheduled events — the
// staged-churn preset must report rejoins, flash-crowd none.
func TestScenarioSweepShape(t *testing.T) {
	artifacts := scenarioSnapshot(t, 0)
	tbl, ok := artifacts["ext-scenarios"]
	if !ok {
		t.Fatal("ext-scenarios table missing")
	}
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if got, want := len(lines), 1+2*3; got != want {
		t.Fatalf("table lines = %d, want %d (header + 2 scenarios × 3 methods)", got, want)
	}
	for _, name := range []string{"flash-crowd", "staged-churn"} {
		if _, ok := artifacts["ext-scenario-"+name+"-resp"]; !ok {
			t.Errorf("missing response chart for %q", name)
		}
	}
	var sawRejoins bool
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		rejoins := fields[len(fields)-1]
		if strings.HasPrefix(line, "staged-churn") && rejoins != "0.0" {
			sawRejoins = true
		}
		if strings.HasPrefix(line, "flash-crowd") && rejoins != "0.0" {
			t.Errorf("flash-crowd reports rejoins (%s) but schedules no waves", rejoins)
		}
	}
	if !sawRejoins {
		t.Error("staged-churn reports no rejoins; its rejoin wave should fire")
	}
}

// TestScenarioSweepDefaultsToAllPresets: with no Scenarios configured, the
// sweep covers the whole preset library.
func TestScenarioSweepDefaultsToAllPresets(t *testing.T) {
	lab := NewLab(Config{
		Model:         model.DefaultConfig().Scale(0.05),
		SweepDuration: 200,
		Repeats:       1,
		BaseSeed:      5,
	})
	res, err := lab.RunAny("ext-scenarios")
	if err != nil {
		t.Fatalf("ext-scenarios: %v", err)
	}
	if got, want := len(res.Charts), len(scenario.Names()); got != want {
		t.Fatalf("charts = %d, want one per preset (%d)", got, want)
	}
	if got, want := len(res.Tables[0].Rows), len(scenario.Names())*3; got != want {
		t.Fatalf("rows = %d, want %d (presets × methods)", got, want)
	}
	if _, err := NewLab(Config{Scenarios: []string{"no-such"}}).RunAny("ext-scenarios"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}
