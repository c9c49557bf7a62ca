package timeline

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// CSVSink streams snapshots as CSV rows: the header is written on the
// first Append and every row goes straight to the underlying writer, so
// a timeline of any length costs constant memory, whatever the run's
// duration. The row
// encoder reuses one scratch buffer and appends with strconv, so the
// steady state allocates nothing per row (BenchmarkTimelineCSV pins
// this).
//
// Not safe for concurrent use; wrap it in a Collector (which serializes
// Appends) when multiple goroutines produce.
type CSVSink struct {
	w      *bufio.Writer
	c      io.Closer
	buf    []byte
	row    Snapshot // staging slot: &row through the field getters must not escape the argument
	header bool

	// FlushEveryRow pushes each row to the underlying writer as soon as
	// it is appended, so a tailing reader (sqlb-top -follow) sees rows
	// while the producer is still running. Off by default — batch exports
	// keep the bufio batching.
	FlushEveryRow bool
}

// NewCSVSink streams rows to w. If w is also an io.Closer, Close closes
// it after flushing.
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{w: bufio.NewWriter(w), buf: make([]byte, 0, 512)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// CreateCSV creates (or truncates) path and streams rows into it.
func CreateCSV(path string) (*CSVSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	return NewCSVSink(f), nil
}

// RepetitionPath derives the timeline file for repetition rep of a
// repeats-run batch from the user-supplied path: "out.csv" becomes
// "out.rep0.csv", "out.rep1.csv", … with the repetition number
// zero-padded to a fixed width so a directory listing sorts the files in
// repetition order at any repeats count. With repeats <= 1 the path is
// returned unchanged — a single run keeps the exact name the user asked
// for — and so is the empty path, which names no file. The scheme is deterministic (a pure function of path, rep,
// repeats), which is what lets tests and tooling predict every file a
// batch will produce.
func RepetitionPath(path string, rep, repeats int) string {
	if repeats <= 1 || path == "" {
		return path
	}
	width := len(strconv.Itoa(repeats - 1))
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.rep%0*d%s", strings.TrimSuffix(path, ext), width, rep, ext)
}

// Append writes one row (and the header before the first row).
func (s *CSVSink) Append(row Snapshot) error {
	if !s.header {
		s.header = true
		s.buf = s.buf[:0]
		s.buf = append(s.buf, "source"...)
		for _, f := range fields {
			s.buf = append(s.buf, ',')
			s.buf = append(s.buf, f.name...)
		}
		s.buf = append(s.buf, '\n')
		if _, err := s.w.Write(s.buf); err != nil {
			return err
		}
	}
	s.row = row
	s.buf = s.buf[:0]
	s.buf = append(s.buf, row.Source...)
	for i := range fields {
		s.buf = append(s.buf, ',')
		s.buf = strconv.AppendFloat(s.buf, fields[i].get(&s.row), 'g', -1, 64)
	}
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		return err
	}
	if s.FlushEveryRow {
		return s.w.Flush()
	}
	return nil
}

// Flush pushes buffered rows to the underlying writer — the live-tailing
// path (sqlb-top following a file another process appends to) needs rows
// visible before Close.
func (s *CSVSink) Flush() error { return s.w.Flush() }

// Close flushes and closes the underlying writer if it is closable.
func (s *CSVSink) Close() error {
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Decoder incrementally reads a timeline CSV stream back into snapshots.
// Columns are resolved by header name, so a decoder reads timelines
// recorded by older or newer schemas (unknown columns are skipped,
// missing ones stay zero). Partial trailing lines — a writer mid-row —
// are kept buffered until the newline arrives, which is what makes
// tailing a live file safe.
type Decoder struct {
	r       io.Reader
	partial []byte
	cols    []int // cols[i] = fields index of CSV column i+1 (-1 = skip)
	header  bool
	scratch [64]byte
}

// NewDecoder reads timeline CSV from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r}
}

// Next returns the next complete row. io.EOF means "no complete row
// buffered right now" — for a growing file, call Next again after the
// producer appends more (the Tailer does exactly that).
func (d *Decoder) Next() (Snapshot, error) {
	for {
		line, err := d.readLine()
		if err != nil {
			return Snapshot{}, err
		}
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if !d.header {
			if err := d.parseHeader(line); err != nil {
				return Snapshot{}, err
			}
			continue
		}
		return d.parseRow(line)
	}
}

// readLine accumulates bytes until a newline, preserving any partial
// tail across calls.
func (d *Decoder) readLine() (string, error) {
	for {
		if i := indexByte(d.partial, '\n'); i >= 0 {
			line := string(d.partial[:i])
			d.partial = append(d.partial[:0], d.partial[i+1:]...)
			return line, nil
		}
		n, err := d.r.Read(d.scratch[:])
		if n > 0 {
			d.partial = append(d.partial, d.scratch[:n]...)
			continue
		}
		if err == nil {
			err = io.EOF
		}
		return "", err
	}
}

func indexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return -1
}

func (d *Decoder) parseHeader(line string) error {
	names := strings.Split(line, ",")
	if len(names) == 0 || names[0] != "source" {
		return fmt.Errorf("timeline: not a timeline CSV (header starts %q, want \"source\")", names[0])
	}
	d.cols = make([]int, len(names)-1)
	for i, name := range names[1:] {
		d.cols[i] = -1
		for fi, f := range fields {
			if f.name == name {
				d.cols[i] = fi
				break
			}
		}
	}
	d.header = true
	return nil
}

func (d *Decoder) parseRow(line string) (Snapshot, error) {
	var s Snapshot
	parts := strings.Split(line, ",")
	s.Source = parts[0]
	for i, p := range parts[1:] {
		if i >= len(d.cols) || d.cols[i] < 0 || p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return Snapshot{}, fmt.Errorf("timeline: bad value %q in column %q: %w", p, fields[d.cols[i]].name, err)
		}
		fields[d.cols[i]].set(&s, v)
	}
	return s, nil
}

// ReadCSV decodes a whole recorded timeline — the sqlb-top replay path.
func ReadCSV(r io.Reader) ([]Snapshot, error) {
	dec := NewDecoder(r)
	var out []Snapshot
	for {
		s, err := dec.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// Tailer follows a timeline CSV file that another process is appending
// to: Poll drains every complete row written since the last call. It
// never blocks, so a render loop can poll on its own cadence.
type Tailer struct {
	f   *os.File
	dec *Decoder
}

// OpenTail opens path for tailing, starting from the beginning (so a
// recorded run replays fully before live rows arrive).
func OpenTail(path string) (*Tailer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("timeline: %w", err)
	}
	return &Tailer{f: f, dec: NewDecoder(f)}, nil
}

// Poll returns the complete rows appended since the previous Poll (nil
// when none).
func (t *Tailer) Poll() ([]Snapshot, error) {
	var out []Snapshot
	for {
		s, err := t.dec.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
}

// Close releases the file.
func (t *Tailer) Close() error { return t.f.Close() }
