package sim

import (
	"errors"
	"strings"
	"testing"

	"sqlb/internal/allocator"
	"sqlb/internal/timeline"
)

// TestTimelineDeterminism is the tentpole contract of the observability
// layer: attaching a timeline sink must leave the simulation Result byte
// for byte identical — the sink is a pure observer of the sample path and
// draws nothing from the RNG streams. Checked on the paper's constant
// workload and on a churn scenario under full autonomy, where any stray
// RNG draw or state mutation would shift every subsequent event.
func TestTimelineDeterminism(t *testing.T) {
	cases := []struct {
		name string
		opts func() Options
	}{
		{"constant", func() Options {
			return smallOptions(allocator.NewSQLB(), 0.8, 600)
		}},
		{"flash-crowd full-autonomy", func() Options {
			opts := scenarioOptions("flash-crowd", allocator.NewSQLB(), 900)
			opts.Autonomy = FullAutonomy()
			return opts
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sink timeline.Sink) string {
				opts := tc.opts()
				opts.Timeline = sink
				eng, err := New(opts)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				res := eng.Run()
				if res.Err != nil {
					t.Fatalf("Result.Err = %v", res.Err)
				}
				if err := eng.TimelineErr(); err != nil {
					t.Fatalf("TimelineErr = %v", err)
				}
				return serializeResult(res)
			}

			bare := run(nil)
			var rows int
			collected := run(timeline.SinkFunc(func(timeline.Snapshot) error {
				rows++
				return nil
			}))
			if bare != collected {
				t.Fatalf("attaching a timeline sink changed the Result:\n--- without ---\n%s\n--- with ---\n%s", bare, collected)
			}
			if rows == 0 {
				t.Fatal("sink received no snapshots — the hook is not wired")
			}

			// Streaming through the full collector+CSV pipeline must be
			// just as invisible.
			var sb strings.Builder
			col := timeline.NewCollector(timeline.NewCSVSink(&sb))
			piped := run(col)
			if err := col.Close(); err != nil {
				t.Fatalf("collector close: %v", err)
			}
			if bare != piped {
				t.Fatal("CSV pipeline changed the Result")
			}
			decoded, err := timeline.ReadCSV(strings.NewReader(sb.String()))
			if err != nil {
				t.Fatalf("re-reading the streamed CSV: %v", err)
			}
			if len(decoded) != rows {
				t.Fatalf("CSV rows %d != sink rows %d", len(decoded), rows)
			}
		})
	}
}

// TestTimelineSnapshotContents spot-checks that emitted snapshots carry
// the engine's state: monotone time, population gauges filled, cumulative
// counters matching the Result ledgers at the end.
func TestTimelineSnapshotContents(t *testing.T) {
	opts := scenarioOptions("outage-30pct", allocator.NewSQLB(), 800)
	var snaps []timeline.Snapshot
	opts.Timeline = timeline.SinkFunc(func(s timeline.Snapshot) error {
		snaps = append(snaps, s)
		return nil
	})
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if res.Err != nil {
		t.Fatalf("Result.Err = %v", res.Err)
	}
	// One snapshot per sample plus the final one.
	if want := len(res.Samples) + 1; len(snaps) != want {
		t.Fatalf("got %d snapshots, want %d", len(snaps), want)
	}
	var qpsSeen bool
	for i, s := range snaps {
		if s.Source != "sim" {
			t.Fatalf("snapshot %d: source %q", i, s.Source)
		}
		if i > 0 && s.Time < snaps[i-1].Time {
			t.Fatalf("snapshot %d: time went backwards (%v after %v)", i, s.Time, snaps[i-1].Time)
		}
		if s.AliveProviders <= 0 || s.AliveConsumers <= 0 {
			t.Fatalf("snapshot %d: population gauges empty: %+v", i, s)
		}
		if s.QPSIn > 0 {
			qpsSeen = true
		}
	}
	if !qpsSeen {
		t.Fatal("no snapshot ever saw a positive arrival rate")
	}
	last := snaps[len(snaps)-1]
	if int(last.Departures) != len(res.ProviderDepartures) {
		t.Errorf("final departures %v != ledger %d", last.Departures, len(res.ProviderDepartures))
	}
	if int(last.Joins) != len(res.ProviderJoins) {
		t.Errorf("final joins %v != ledger %d", last.Joins, len(res.ProviderJoins))
	}
	if int(last.AliveProviders) != res.Final.AliveProviders {
		t.Errorf("final alive providers %v != %d", last.AliveProviders, res.Final.AliveProviders)
	}
	// Interval dropped deltas must sum to the run total.
	var dropped float64
	for _, s := range snaps {
		dropped += s.Dropped
	}
	if uint64(dropped) != res.DroppedQueries {
		t.Errorf("Σ dropped deltas %v != Result.DroppedQueries %d", dropped, res.DroppedQueries)
	}
}

// TestTimelineErrKeptOffResult pins the error contract: a failing sink
// never contaminates Result.Err (that would break byte-identity); it
// surfaces via Engine.TimelineErr instead.
func TestTimelineErrKeptOffResult(t *testing.T) {
	boom := errors.New("sink failed")
	opts := smallOptions(allocator.NewSQLB(), 0.8, 300)
	opts.Timeline = timeline.SinkFunc(func(timeline.Snapshot) error { return boom })
	eng, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res := eng.Run()
	if res.Err != nil {
		t.Fatalf("sink error leaked into Result.Err: %v", res.Err)
	}
	if !errors.Is(eng.TimelineErr(), boom) {
		t.Fatalf("TimelineErr = %v, want the sink error", eng.TimelineErr())
	}
}

// countingSink records how often it is written and closed, and fails each
// with the error it is given.
type countingSink struct {
	appendErr, closeErr error
	rows, closes        int
}

func (s *countingSink) Append(timeline.Snapshot) error { s.rows++; return s.appendErr }
func (s *countingSink) Close() error                   { s.closes++; return s.closeErr }

// TestRunClosesTheSink pins Run's contract: it closes the sink once on
// every path, returns the Result New and Engine.Run produce, and fails on
// the first error among New, the sink's Append and its Close.
func TestRunClosesTheSink(t *testing.T) {
	opts := smallOptions(allocator.NewSQLB(), 0.8, 300)
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Run()

	appendBoom, closeBoom := errors.New("append failed"), errors.New("close failed")
	for _, tc := range []struct {
		name    string
		sink    *countingSink
		options func(Options) Options
		wantErr error
	}{
		{"healthy", &countingSink{}, nil, nil},
		{"append fails", &countingSink{appendErr: appendBoom, closeErr: closeBoom}, nil, appendBoom},
		{"close fails", &countingSink{closeErr: closeBoom}, nil, closeBoom},
		{"invalid options", &countingSink{}, func(o Options) Options { o.Duration = 0; return o }, nil},
	} {
		o := opts
		if tc.options != nil {
			o = tc.options(o)
		}
		o.Timeline = tc.sink
		res, err := Run(o)
		if tc.sink.closes != 1 {
			t.Errorf("%s: sink closed %d times, want once", tc.name, tc.sink.closes)
		}
		switch {
		case tc.options != nil:
			if err == nil || tc.sink.rows != 0 {
				t.Errorf("%s: error %v after %d rows, want New's error before any row", tc.name, err, tc.sink.rows)
			}
		case tc.wantErr != nil:
			if !errors.Is(err, tc.wantErr) || res != nil {
				t.Errorf("%s: Run = %v, %v; want no result and %v", tc.name, res, err, tc.wantErr)
			}
		default:
			if err != nil || res.IssuedQueries != want.IssuedQueries || res.MeanResponseTime != want.MeanResponseTime {
				t.Errorf("%s: Run = %+v, %v; want New+Run's result", tc.name, res, err)
			}
		}
	}
}
