package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/scenario"
	"sqlb/internal/timeline"
)

// goldenPath holds the recorded cross-PR determinism pins: a SHA-256 per
// case over the serialized Result and the streamed timeline CSV. It pins the
// bytes *across* refactors — a change that claims to be behaviour-neutral
// must leave every simulation bit-for-bit identical to the recording made
// before it landed.
//
// Regenerate deliberately (a behaviour-changing PR must say so) with:
//
//	SQLB_UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenDeterminism
const goldenPath = "testdata/golden_determinism.json"

// runCase executes one golden case with a timeline CSV sink attached,
// returning the serialized Result and the raw CSV bytes — the two artifacts
// the determinism contract covers.
func runCase(t *testing.T, mutate func(*Options)) (string, []byte) {
	t.Helper()
	opts := smallOptions(allocator.NewSQLB(), 0.8, 500)
	if mutate != nil {
		mutate(&opts)
	}
	var buf bytes.Buffer
	opts.Timeline = timeline.NewCSVSink(&buf)
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if err := eng.TimelineErr(); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	if res.Err != nil {
		t.Fatalf("Result.Err: %v", res.Err)
	}
	return serializeResult(res), buf.Bytes()
}

// goldenCases is the determinism grid: the homogeneous paper setup, two
// heterogeneous capability workloads, and every scenario preset, each with
// full autonomy and a timeline sink attached.
func goldenCases() []struct {
	name   string
	mutate func(*Options)
} {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"homogeneous", nil},
		{"heterogeneous", func(o *Options) {
			o.Config = o.Config.WithClasses(6)
			o.Config.CapabilitySelectivity = 0.34
			o.Config.ClassSkew = 1
			o.Autonomy = FullAutonomy()
		}},
		// One class per specialist plus a share of generalists, under churn:
		// the shape whose providers the population lays out class by class.
		{"narrow-generalists", func(o *Options) {
			o.Config = o.Config.WithClasses(16)
			o.Config.CapabilitySelectivity = 1.0 / 16
			o.Config.GeneralistShare = 0.1
			o.Scenario, _ = scenario.Preset("staged-churn")
			o.SampleInterval = o.Duration / 40
			o.Autonomy = FullAutonomy()
		}},
	}
	for _, name := range scenario.Names() {
		preset, ok := scenario.Preset(name)
		if !ok {
			panic("preset vanished: " + name)
		}
		cases = append(cases, struct {
			name   string
			mutate func(*Options)
		}{"scenario-" + name, func(o *Options) {
			o.Scenario = preset
			o.SampleInterval = o.Duration / 40
			o.Autonomy = FullAutonomy()
		}})
	}
	return cases
}

// TestGoldenDeterminism compares every golden case against the recorded
// digests.
func TestGoldenDeterminism(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	update := os.Getenv("SQLB_UPDATE_GOLDEN") != ""
	if err != nil && !update {
		t.Fatalf("read goldens (SQLB_UPDATE_GOLDEN=1 to record): %v", err)
	}
	want := map[string]string{}
	if err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	}

	got := map[string]string{}
	for _, tc := range goldenCases() {
		res, csv := runCase(t, tc.mutate)
		sum := sha256.Sum256(append([]byte(res), csv...))
		got[tc.name] = hex.EncodeToString(sum[:])
	}

	if update {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden digests to %s", len(got), goldenPath)
		return
	}

	for key, digest := range got {
		if want[key] == "" {
			t.Errorf("%s: no recorded golden (SQLB_UPDATE_GOLDEN=1 to record)", key)
			continue
		}
		if digest != want[key] {
			t.Errorf("%s: digest %s differs from recorded %s — the run is no longer byte-identical to the pre-refactor engine",
				key, digest, want[key])
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d digests, goldens record %d", len(got), len(want))
	}
}
