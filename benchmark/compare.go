package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports judges report b against report a: one row per workload
// and end-to-end metric, with the direction and bound BENCHMARK.json fixes.
// It reports false when any pair is worse, or when two runs of one commit
// and seed disagree on a digest.
func compareReports(w io.Writer, spec *benchSpec, pathA, pathB string) (bool, error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	sameInputs := a.Seed == b.Seed && a.Seconds == b.Seconds
	sameCommit := sameInputs && a.Env.Commit == b.Env.Commit && a.Env.Commit != "unknown"
	fmt.Fprintf(w, "base %s (commit %s)  new %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name][keyEndToEnd], b.Workloads[wl.Name][keyEndToEnd]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-13s missing from a report\n", wl.Name)
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, inA := ra.Metrics[m.Name]
			mb, inB := rb.Metrics[m.Name]
			if !inA || !inB {
				fmt.Fprintf(w, "%-13s %-18s missing from a report\n", wl.Name, m.Name)
				ok = false
				continue
			}
			verdict, change, spread := judge(m, ma, mb)
			ok = ok && verdict != verdictWorse
			fmt.Fprintf(w, "%-13s %-18s %-10s base %.6g %s  new %.6g %s  change %+.2f%% of base  bound %.0f%%  rep spread %.1f%%\n",
				wl.Name, m.Name, verdict, ma.Value, ma.Unit, mb.Value, mb.Unit, 100*change, 100*m.Bound, 100*spread)
		}
		switch {
		case ra.Digest == rb.Digest:
			fmt.Fprintf(w, "%-13s digest             same\n", wl.Name)
		case sameCommit:
			fmt.Fprintf(w, "%-13s digest             DIFFERS between two runs of one commit and seed\n", wl.Name)
			ok = false
		case sameInputs:
			fmt.Fprintf(w, "%-13s digest             differs: the new commit allocates differently\n", wl.Name)
		default:
			fmt.Fprintf(w, "%-13s digest             not comparable (seed or measuring time differ)\n", wl.Name)
		}
	}
	return ok, nil
}

// judge applies one metric's direction and bound. change is how far the
// new median moved in the worse direction, as a share of the base. Where
// the repetitions of either side spread wider than the bound, a verdict
// needs every repetition of one side to beat every repetition of the
// other; otherwise the pair is unresolved, not unchanged.
func judge(m metricSpec, base, next metric) (verdict string, change, spread float64) {
	change = (next.Value - base.Value) / base.Value
	if m.Better == "higher" {
		change = -change
	}
	spread = max(repSpread(base), repSpread(next))
	allWorse, allBetter := next.Min > base.Max, next.Max < base.Min
	if m.Better == "higher" {
		allWorse, allBetter = allBetter, allWorse
	}
	switch {
	case change > m.Bound && (spread <= m.Bound || allWorse):
		return verdictWorse, change, spread
	case spread > m.Bound && !allBetter && !allWorse:
		return verdictUnresolved, change, spread
	}
	return verdictOK, change, spread
}

// repSpread is the range of a metric's repetitions as a share of their
// median.
func repSpread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Max - m.Min) / m.Value
}
