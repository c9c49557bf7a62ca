package timeline

import (
	"fmt"
	"regexp"
	"strings"
	"unicode/utf8"
)

// HomeAndClear is the ANSI sequence a live render loop prefixes each
// frame with: cursor home plus erase-below, which repaints in place
// without the full-screen flash of a hard clear.
const HomeAndClear = "\x1b[H\x1b[J"

// HideCursor and ShowCursor wrap a live rendering session.
const (
	HideCursor = "\x1b[?25l"
	ShowCursor = "\x1b[?25h"
)

// sparkLevels are the eighth-block characters sparklines are drawn with.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// ansiPattern matches CSI escape sequences (colors, cursor movement).
var ansiPattern = regexp.MustCompile(`\x1b\[[0-9;?]*[A-Za-z]`)

// StripANSI removes escape sequences — the golden-frame test renders a
// colored frame and compares the plain text.
func StripANSI(s string) string { return ansiPattern.ReplaceAllString(s, "") }

// Sparkline renders the last `width` values as eighth-block characters,
// scaled min→max over the shown values (a flat series renders as a low
// bar, not an empty cell, so "constant" and "no data" look different).
func Sparkline(values []float64, width int) string {
	if width <= 0 || len(values) == 0 {
		return ""
	}
	if len(values) > width {
		values = values[len(values)-width:]
	}
	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Bar renders value/max as a fixed-width block gauge, e.g. [███████···].
// Values past max fill the bar (a saturated provider reads as full).
func Bar(value, max float64, width int) string {
	if width <= 0 {
		return ""
	}
	fill := 0
	if max > 0 {
		fill = int(value / max * float64(width))
	}
	if fill > width {
		fill = width
	}
	if fill < 0 {
		fill = 0
	}
	return "[" + strings.Repeat("█", fill) + strings.Repeat("·", width-fill) + "]"
}

// Dashboard renders snapshot windows as a fixed-width terminal frame:
// headline gauges, per-metric sparklines, per-capacity-class utilization
// bars, churn and backpressure counters, and the calculator's
// recommendation lines. Width is the frame width in cells (0 = 80);
// Color enables ANSI colors (the golden test renders without).
type Dashboard struct {
	Width int
	Color bool
}

// color wraps s in an SGR sequence when colors are on.
func (d *Dashboard) color(code, s string) string {
	if !d.Color {
		return s
	}
	return "\x1b[" + code + "m" + s + "\x1b[0m"
}

func levelColor(level string) string {
	switch level {
	case LevelCrit:
		return "31;1" // bright red
	case LevelWarn:
		return "33;1" // bright yellow
	default:
		return "32" // green
	}
}

// Frame renders one dashboard frame from the raw snapshot window (oldest
// first) and its health assessment. The caller owns screen control
// (HomeAndClear between frames); the frame itself is plain lines.
func (d *Dashboard) Frame(win []Snapshot, h Health) string {
	width := d.Width
	if width <= 0 {
		width = 80
	}
	var b strings.Builder
	if len(win) == 0 {
		b.WriteString(d.color("2", "sqlb-top · waiting for snapshots...") + "\n")
		return b.String()
	}
	last := win[len(win)-1]
	spark := width/2 - 16
	if spark < 8 {
		spark = 8
	}
	series := func(get func(*Snapshot) float64) []float64 {
		out := make([]float64, len(win))
		for i := range win {
			out[i] = get(&win[i])
		}
		return out
	}

	title := fmt.Sprintf("sqlb-top · %s", last.Source)
	right := fmt.Sprintf("t=%.1fs · %d rows", last.Time, len(win))
	pad := width - len(title) - len(right)
	if pad < 1 {
		pad = 1
	}
	b.WriteString(d.color("1", title) + strings.Repeat(" ", pad) + d.color("2", right) + "\n")

	fmt.Fprintf(&b, "load      %4.0f%%   qps in %8.1f  out %8.1f   queue %5.0f   alive %3.0fP %3.0fC\n",
		100*last.WorkloadFraction, last.QPSIn, last.QPSOut, last.QueueDepth,
		last.AliveProviders, last.AliveConsumers)
	fmt.Fprintf(&b, "latency   mean %s  p50 %s  p95 %s  p99 %s\n",
		fmtSecs(last.LatencyMean), fmtSecs(last.LatencyP50), fmtSecs(last.LatencyP95), fmtSecs(last.LatencyP99))
	fmt.Fprintf(&b, "prov sat  %5.3f %s\n", last.ProvSat, Sparkline(series(func(s *Snapshot) float64 { return s.ProvSat }), spark))
	fmt.Fprintf(&b, "cons sat  %5.3f %s   alloc sat %5.3f\n",
		last.ConsSat, Sparkline(series(func(s *Snapshot) float64 { return s.ConsSat }), spark), last.AllocSat)
	fmt.Fprintf(&b, "util      %5.3f %s   fair %5.3f  gini %5.3f\n",
		last.UtilMean, Sparkline(series(func(s *Snapshot) float64 { return s.UtilMean }), spark),
		last.UtilFairness, last.UtilGini)
	fmt.Fprintf(&b, "qps       %7.1f %s\n", last.QPSIn, Sparkline(series(func(s *Snapshot) float64 { return s.QPSIn }), spark))

	barW := width - 26
	if barW > 32 {
		barW = 32
	}
	if barW < 8 {
		barW = 8
	}
	classes := []struct {
		label string
		v     float64
	}{
		{"low ", last.UtilClassLow},
		{"med ", last.UtilClassMed},
		{"high", last.UtilClassHigh},
	}
	for i, c := range classes {
		label := "class     "
		if i > 0 {
			label = "          "
		}
		fmt.Fprintf(&b, "%s%s %s %5.3f\n", label, c.label, Bar(c.v, 1, barW), c.v)
	}

	var dropped, rejected, errs float64
	for i := range win {
		dropped += win[i].Dropped
		rejected += win[i].Rejected
		errs += win[i].Errors
	}
	fmt.Fprintf(&b, "churn     departures %.0f  joins %.0f   window drops %.0f  rejects %.0f  errors %.0f\n",
		last.Departures, last.Joins, dropped, rejected, errs)

	level := strings.ToUpper(h.Level)
	if len(h.Recommendations) == 0 {
		b.WriteString("health    " + d.color(levelColor(h.Level), level) + "    system healthy\n")
	} else {
		// 10 for the gutter, the level word, two spaces — what remains of
		// the frame width belongs to the advice text.
		room := width - 12 - len(level)
		for i, rec := range h.Recommendations {
			if i == 0 {
				b.WriteString("health    " + d.color(levelColor(h.Level), level) + "  " + clip(rec, room) + "\n")
			} else {
				b.WriteString("          " + strings.Repeat(" ", len(level)) + "  " + clip(rec, room) + "\n")
			}
		}
	}
	return b.String()
}

// Draw renders one frame of the window with its own health assessment —
// the frame every live and replayed dashboard shows.
func (d *Dashboard) Draw(win []Snapshot) string { return d.Frame(win, Assess(win)) }

// clip truncates s to width runes, marking the cut with an ellipsis.
func clip(s string, width int) string {
	if width < 1 || utf8.RuneCountInString(s) <= width {
		return s
	}
	runes := []rune(s)
	return string(runes[:width-1]) + "…"
}

// fmtSecs renders a duration given in seconds with a unit that keeps
// three significant figures (µs/ms/s).
func fmtSecs(v float64) string {
	switch {
	case v <= 0:
		return "    -  "
	case v < 1e-3:
		return fmt.Sprintf("%5.1fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%5.1fms", v*1e3)
	default:
		return fmt.Sprintf("%5.2fs ", v)
	}
}
