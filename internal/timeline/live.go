package timeline

import (
	"fmt"
	"io"
	"os"
	"time"
)

// Live returns the sink a command streams one run's timeline to: the CSV
// file at path (when path is not empty), flushed every row so another
// terminal's sqlb-top -follow sees each row as it lands, and, with top,
// the dashboard drawn on standard output after every snapshot, pace apart
// (the pause is wall-clock time outside any simulated clock, so it lets a
// virtual-time run play as an animation without moving a result). Close
// closes the file and, with top, gives the terminal its cursor back. Live
// returns a nil sink when neither is asked for.
func Live(path string, top bool, pace time.Duration) (Sink, error) {
	return live(path, top, pace, os.Stdout)
}

func live(path string, top bool, pace time.Duration, out io.Writer) (Sink, error) {
	var sinks []Sink
	if path != "" {
		cs, err := CreateCSV(path)
		if err != nil {
			return nil, err
		}
		cs.FlushEveryRow = true
		sinks = append(sinks, cs)
	}
	switch {
	case top:
		fmt.Fprint(out, HideCursor)
		return &liveDashboard{col: NewCollector(sinks...), dash: Dashboard{Color: true}, out: out, pace: pace}, nil
	case len(sinks) > 0:
		return sinks[0], nil
	}
	return nil, nil
}

// liveDashboard feeds a collector and redraws the dashboard from its
// rolling window after every snapshot.
type liveDashboard struct {
	col  *Collector
	dash Dashboard
	out  io.Writer
	pace time.Duration
}

func (l *liveDashboard) Append(s Snapshot) error {
	err := l.col.Append(s)
	fmt.Fprint(l.out, HomeAndClear+l.dash.Draw(l.col.Window()))
	time.Sleep(l.pace)
	return err
}

func (l *liveDashboard) Close() error {
	err := l.col.Close()
	fmt.Fprint(l.out, ShowCursor)
	return err
}
