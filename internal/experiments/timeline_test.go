package experiments

import (
	"strings"
	"sync"
	"testing"

	"sqlb/internal/model"
	"sqlb/internal/timeline"
)

// timelineCapture hands the Lab one CSV sink per run and keeps the
// finished streams keyed by runID. Runs execute on Lab workers
// concurrently, so the map is locked; each individual sink is only ever
// used by its own run.
type timelineCapture struct {
	mu   sync.Mutex
	bufs map[string]*strings.Builder
}

func newTimelineCapture() *timelineCapture {
	return &timelineCapture{bufs: map[string]*strings.Builder{}}
}

func (c *timelineCapture) factory(runID string) timeline.Sink {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.bufs[runID]; dup {
		return nil // duplicate runID would interleave two streams
	}
	var sb strings.Builder
	c.bufs[runID] = &sb
	return timeline.NewCSVSink(&sb)
}

func (c *timelineCapture) streams() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.bufs))
	for id, sb := range c.bufs {
		out[id] = sb.String()
	}
	return out
}

// TestTimelineLabDeterminism is the acceptance gate for wiring the
// timeline through the Lab: with per-run sinks attached, the experiment
// CSVs must stay byte-identical between Workers=1 and Workers=8, and the
// recorded timeline streams themselves must be byte-identical too (each
// run's stream depends only on its seed, never on scheduling).
func TestTimelineLabDeterminism(t *testing.T) {
	run := func(workers int) (map[string]string, map[string]string) {
		cap := newTimelineCapture()
		lab := NewLab(Config{
			Model:          model.DefaultConfig().Scale(0.05),
			Duration:       300,
			SweepDuration:  400,
			Repeats:        2,
			BaseSeed:       19,
			SampleInterval: 50,
			Workloads:      []float64{0.4, 0.8},
			Workers:        workers,
			Timeline:       cap.factory,
		})
		artifacts := map[string]string{}
		for _, id := range []string{"fig4a", "fig4i"} {
			res, err := lab.RunAny(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for _, ch := range res.Charts {
				artifacts[ch.ID] = ch.CSV()
			}
			for _, tbl := range res.Tables {
				artifacts[tbl.ID] = tbl.CSV()
			}
		}
		return artifacts, cap.streams()
	}

	serialArt, serialTL := run(1)
	parallelArt, parallelTL := run(8)

	if len(serialArt) != len(parallelArt) {
		t.Fatalf("artifact counts differ: %d vs %d", len(serialArt), len(parallelArt))
	}
	for id, csv := range serialArt {
		if parallelArt[id] != csv {
			t.Errorf("%s: Workers=8 CSV differs from Workers=1 with timeline enabled", id)
		}
	}

	if len(serialTL) == 0 {
		t.Fatal("no timeline streams were recorded")
	}
	if len(serialTL) != len(parallelTL) {
		t.Fatalf("timeline stream counts differ: %d vs %d", len(serialTL), len(parallelTL))
	}
	for id, stream := range serialTL {
		other, ok := parallelTL[id]
		if !ok {
			t.Errorf("run %q missing from the Workers=8 recording", id)
			continue
		}
		if other != stream {
			t.Errorf("run %q: timeline stream differs between worker counts", id)
		}
		rows, err := timeline.ReadCSV(strings.NewReader(stream))
		if err != nil {
			t.Errorf("run %q: stream does not parse back: %v", id, err)
		} else if len(rows) == 0 {
			t.Errorf("run %q: stream is empty", id)
		}
	}

	// The ramp bundle runs 3 methods × 2 reps; the sweep adds
	// kind/method/workload/rep streams on top. Spot-check the naming scheme
	// both CLIs and docs advertise.
	for _, want := range []string{"ramp/SQLB/rep0", "ramp/Capacity based/rep1", "captive/SQLB/w40/rep0"} {
		if _, ok := serialTL[want]; !ok {
			t.Errorf("expected a %q stream; have %v", want, keysOf(serialTL))
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTimelineEveryRun: every simulation an experiment runs asks the
// Timeline factory for its sink once, under an ID no other run uses — the
// extension tables and the selectivity sweep as much as the paper's
// figures — and streams a row per sample at Duration/50, not only its
// final snapshot.
func TestTimelineEveryRun(t *testing.T) {
	lab := tinyLab()
	var mu sync.Mutex
	var calls, rows map[string]int
	lab.cfg.Timeline = func(runID string) timeline.Sink {
		mu.Lock()
		defer mu.Unlock()
		calls[runID]++
		return timeline.SinkFunc(func(timeline.Snapshot) error {
			mu.Lock()
			defer mu.Unlock()
			rows[runID]++
			return nil
		})
	}
	for _, tc := range []struct {
		id   string
		runs int
	}{
		{"ext-omega", 4 * lab.cfg.Repeats},
		{"ext-selectivity", len(methods()) * len(lab.cfg.Selectivities) * lab.cfg.Repeats},
	} {
		calls, rows = map[string]int{}, map[string]int{}
		if _, err := lab.RunAny(tc.id); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		for runID, n := range calls {
			if n != 1 {
				t.Errorf("%s: run %q asked for its sink %d times", tc.id, runID, n)
			}
			if rows[runID] != 51 {
				t.Errorf("%s: run %q streamed %d rows, want 51", tc.id, runID, rows[runID])
			}
		}
		if len(calls) != tc.runs {
			t.Errorf("%s: %d runs asked for a sink, want %d: %v", tc.id, len(calls), tc.runs, keysOf(calls))
		}
	}
}
