package timeline

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snap builds a test snapshot whose fields are all distinguishable, so
// codec tests catch swapped columns.
func snap(t float64) Snapshot {
	return Snapshot{
		Time:             t,
		Source:           "sim",
		WorkloadFraction: 0.8,
		QPSIn:            100 + t,
		QPSOut:           90 + t,
		Dropped:          1,
		Rejected:         2,
		Errors:           0,
		QueueDepth:       5 + t,
		LatencyMean:      0.25,
		LatencyP50:       0.2,
		LatencyP95:       0.9,
		LatencyP99:       1.5,
		ProvSat:          0.61,
		ConsSat:          0.55,
		AllocSat:         0.97,
		SatFairness:      0.93,
		UtilMean:         0.72,
		UtilFairness:     0.88,
		UtilGini:         0.21,
		UtilClassLow:     0.5,
		UtilClassMed:     0.7,
		UtilClassHigh:    0.9,
		AliveProviders:   100,
		AliveConsumers:   50,
		Departures:       3,
		Joins:            1,
	}
}

func TestFieldsTableComplete(t *testing.T) {
	// Every field must roundtrip through its get/set pair, and names must
	// be unique — the schema table is the single source of truth for the
	// codec, so a broken accessor silently corrupts recorded timelines.
	seen := map[string]bool{}
	for i, f := range fields {
		if f.name == "" || seen[f.name] {
			t.Fatalf("field %d: empty or duplicate name %q", i, f.name)
		}
		seen[f.name] = true
		var s Snapshot
		f.set(&s, 42.5)
		if got := f.get(&s); got != 42.5 {
			t.Fatalf("field %q: set 42.5, get %v (get/set pair mismatched)", f.name, got)
		}
	}
}

func TestCSVRoundtrip(t *testing.T) {
	var sb strings.Builder
	sink := NewCSVSink(&sb)
	want := []Snapshot{snap(10), snap(20), snap(30)}
	for _, s := range want {
		if err := sink.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: decoded %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestCSVDecoderSkipsUnknownColumns(t *testing.T) {
	in := "source,time,mystery,util_mean\nsim,5,99,0.5\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Time != 5 || got[0].UtilMean != 0.5 {
		t.Fatalf("got %+v", got)
	}
}

func TestCSVDecoderRejectsForeignCSV(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Fatal("want an error for a non-timeline header")
	}
}

// slowWriter delivers data to the decoder in tiny chunks so partial rows
// are the common case, as when tailing a live file mid-write.
type slowWriter struct {
	data []byte
	pos  int
}

func (s *slowWriter) Read(p []byte) (int, error) {
	if s.pos >= len(s.data) {
		return 0, io.EOF
	}
	p[0] = s.data[s.pos]
	s.pos++
	return 1, nil
}

func TestDecoderBuffersPartialLines(t *testing.T) {
	var sb strings.Builder
	sink := NewCSVSink(&sb)
	for _, s := range []Snapshot{snap(1), snap(2)} {
		if err := sink.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	sink.Flush()
	got, err := ReadCSV(&slowWriter{data: []byte(sb.String())})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Time != 1 || got[1].Time != 2 {
		t.Fatalf("got %d rows %+v", len(got), got)
	}
}

func TestTailerFollowsGrowingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.csv")
	sink, err := CreateCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.FlushEveryRow = true
	if err := sink.Append(snap(1)); err != nil {
		t.Fatal(err)
	}

	tail, err := OpenTail(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	rows, err := tail.Poll()
	if err != nil || len(rows) != 1 || rows[0].Time != 1 {
		t.Fatalf("first poll: rows=%v err=%v", rows, err)
	}

	// Nothing new yet: Poll must return empty, not error.
	if rows, err := tail.Poll(); err != nil || len(rows) != 0 {
		t.Fatalf("idle poll: rows=%v err=%v", rows, err)
	}

	// The producer appends while the tailer is live.
	if err := sink.Append(snap(2)); err != nil {
		t.Fatal(err)
	}
	if err := sink.Append(snap(3)); err != nil {
		t.Fatal(err)
	}
	rows, err = tail.Poll()
	if err != nil || len(rows) != 2 || rows[0].Time != 2 || rows[1].Time != 3 {
		t.Fatalf("live poll: rows=%v err=%v", rows, err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorPassthrough(t *testing.T) {
	var got []Snapshot
	c := NewCollector(SinkFunc(func(s Snapshot) error {
		got = append(got, s)
		return nil
	}))
	n := DefaultRawWindow + 6
	for i := 1; i <= n; i++ {
		c.Offer(snap(float64(i)))
	}
	if len(got) != n || got[0].Time != 1 || got[n-1].Time != float64(n) {
		t.Fatalf("passthrough emitted %d rows (times %v…%v), want %d in order", len(got), got[0].Time, got[len(got)-1].Time, n)
	}
	// The raw window is bounded: only the last DefaultRawWindow survive,
	// oldest first.
	win := c.Window()
	if len(win) != DefaultRawWindow || win[0].Time != 7 || win[len(win)-1].Time != float64(n) {
		t.Fatalf("window holds %d snapshots, times %v…%v", len(win), win[0].Time, win[len(win)-1].Time)
	}
}

func TestCollectorSinkErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	c := NewCollector(SinkFunc(func(Snapshot) error { calls++; return boom }))
	if err := c.Append(snap(1)); !errors.Is(err, boom) {
		t.Fatalf("Append error = %v, want boom", err)
	}
	// A failing sink still sees every row, and the first error stays.
	if err := c.Append(snap(2)); !errors.Is(err, boom) || calls != 2 {
		t.Fatalf("second Append: error %v after %d sink calls, want boom after 2", err, calls)
	}
	if err := c.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close error = %v, want boom", err)
	}
}

func TestAssessLevels(t *testing.T) {
	mk := func(n int, mut func(i int, s *Snapshot)) []Snapshot {
		win := make([]Snapshot, n)
		for i := range win {
			win[i] = Snapshot{Time: float64(i + 1), QPSIn: 100, UtilMean: 0.5, ProvSat: 0.6}
			mut(i, &win[i])
		}
		return win
	}

	if h := Assess(nil); h.Level != LevelOK {
		t.Errorf("empty window level = %s, want ok", h.Level)
	}
	if h := Assess(mk(10, func(int, *Snapshot) {})); h.Level != LevelOK || len(h.Recommendations) != 0 {
		t.Errorf("healthy window: %+v", h)
	}

	h := Assess(mk(10, func(i int, s *Snapshot) { s.UtilMean = 0.99 }))
	if h.Level != LevelCrit {
		t.Errorf("saturation level = %s, want crit (%v)", h.Level, h.Recommendations)
	}

	h = Assess(mk(10, func(i int, s *Snapshot) { s.Rejected = 50 }))
	if h.Level != LevelCrit || h.RejectRate < RejectRateWarn {
		t.Errorf("reject storm: %+v", h)
	}

	h = Assess(mk(10, func(i int, s *Snapshot) { s.Dropped = 10 }))
	if h.Level != LevelWarn || h.DropRate < DropRateWarn {
		t.Errorf("drops: %+v", h)
	}

	h = Assess(mk(10, func(i int, s *Snapshot) { s.UtilGini = 0.6 }))
	if h.Level != LevelWarn || h.Imbalance != 0.6 {
		t.Errorf("imbalance: %+v", h)
	}

	h = Assess(mk(10, func(i int, s *Snapshot) { s.ProvSat = 0.9 - 0.05*float64(i) }))
	if h.Level != LevelWarn || h.SatTrend >= 0 {
		t.Errorf("falling satisfaction: %+v", h)
	}

	h = Assess(mk(10, func(i int, s *Snapshot) { s.UtilMean = 0.05 }))
	if h.Level != LevelWarn {
		t.Errorf("underutilization: %+v", h)
	}
}

func TestSatTrendLinearSeries(t *testing.T) {
	// A perfectly linear drop of 0.3 across the window must be recovered
	// almost exactly by the least-squares fit.
	win := make([]Snapshot, 11)
	for i := range win {
		win[i] = Snapshot{Time: float64(i), ProvSat: 0.9 - 0.03*float64(i)}
	}
	if got := satTrend(win); math.Abs(got-(-0.3)) > 1e-9 {
		t.Fatalf("satTrend = %v, want -0.3", got)
	}
}

func TestCreateCSVBadPath(t *testing.T) {
	if _, err := CreateCSV(filepath.Join(t.TempDir(), "no", "such", "dir", "x.csv")); err == nil {
		t.Fatal("want error for unwritable path")
	}
}

func TestOpenTailMissingFile(t *testing.T) {
	_, err := OpenTail(filepath.Join(t.TempDir(), "absent.csv"))
	if err == nil {
		t.Fatal("want error for a missing file")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("error %v should unwrap to os.ErrNotExist (sqlb-top -follow waits on it)", err)
	}
}

// TestRepetitionPath pins the per-repetition naming scheme: single runs
// keep the user's path untouched, batches insert a zero-padded ".repNN"
// before the extension so listings sort in repetition order,
// extension-less paths still work, and the empty path (no file) stays
// empty.
func TestRepetitionPath(t *testing.T) {
	cases := []struct {
		path         string
		rep, repeats int
		want         string
	}{
		{"out.csv", 0, 1, "out.csv"},
		{"out.csv", 0, 0, "out.csv"},
		{"out.csv", 0, 2, "out.rep0.csv"},
		{"out.csv", 1, 2, "out.rep1.csv"},
		{"out.csv", 3, 10, "out.rep3.csv"},
		{"out.csv", 9, 11, "out.rep09.csv"},
		{"out.csv", 10, 11, "out.rep10.csv"},
		{"out.csv", 7, 100, "out.rep07.csv"},
		{"runs/tl", 2, 4, "runs/tl.rep2"},
		{"a.b/tl.csv.gz", 1, 3, "a.b/tl.csv.rep1.gz"},
		{"", 1, 3, ""},
	}
	for _, tc := range cases {
		if got := RepetitionPath(tc.path, tc.rep, tc.repeats); got != tc.want {
			t.Errorf("RepetitionPath(%q, %d, %d) = %q, want %q",
				tc.path, tc.rep, tc.repeats, got, tc.want)
		}
	}
}

// TestLive: each sink Live hands out keeps its promise — none without a
// path or -top; the file alone, every row flushed as it lands; and the
// dashboard over a collector, one frame per snapshot, with the cursor hidden
// until Close gives it back.
func TestLive(t *testing.T) {
	if s, err := live("", false, 0, io.Discard); s != nil || err != nil {
		t.Fatalf("no path, no top: sink %v, error %v; want neither", s, err)
	}
	dir := t.TempDir()
	if _, err := live(filepath.Join(dir, "missing", "x.csv"), true, 0, io.Discard); err == nil {
		t.Error("unwritable path accepted")
	}

	readRows := func(path string) int {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ReadCSV(strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	path := filepath.Join(dir, "file.csv")
	s, err := live(path, false, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(snap(1)); err != nil {
		t.Fatal(err)
	}
	if n := readRows(path); n != 1 {
		t.Errorf("before Close the file holds %d rows, want the 1 appended", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{"", filepath.Join(dir, "top.csv")} {
		var term strings.Builder
		s, err := live(path, true, 0, &term)
		if err != nil {
			t.Fatal(err)
		}
		win := []Snapshot{snap(1), snap(2)}
		for _, sn := range win {
			if err := s.Append(sn); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		dash := Dashboard{Color: true}
		want := HideCursor + HomeAndClear + dash.Draw(win[:1]) + HomeAndClear + dash.Draw(win) + ShowCursor
		if term.String() != want {
			t.Errorf("path %q: terminal got\n%q\nwant\n%q", path, term.String(), want)
		}
		if path != "" && readRows(path) != len(win) {
			t.Errorf("path %q: the dashboard's file holds %d rows, want %d", path, readRows(path), len(win))
		}
	}
}
