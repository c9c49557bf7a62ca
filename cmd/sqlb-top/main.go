// Command sqlb-top renders the live terminal dashboard over a recorded
// or growing timeline CSV — the file sqlb-sim -timeline and sqlb-serve
// -timeline stream while they run. It is dependency-free: plain ANSI
// escapes, eighth-block sparklines, and the internal/timeline calculator's
// health line.
//
// A recorded run replays as a short animation (one frame per row, -delay
// apart) and leaves the final frame on screen. With -follow, sqlb-top
// keeps polling the file afterwards and renders every new row as the
// producer appends it — start the producer in one terminal and
//
//	sqlb-sim -scenario flash-crowd -duration 2000 -timeline run.csv &
//	sqlb-top -file run.csv -follow
//
// in another. -once skips the animation and prints the final frame only
// (the mode scripts and smoke tests use).
//
// Usage:
//
//	sqlb-top -file run.csv [-follow] [-once] [-refresh d] [-delay d]
//	         [-width n] [-no-color]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"sqlb/internal/timeline"
)

func main() {
	var (
		file    = flag.String("file", "", "timeline CSV to render (as written by sqlb-sim -timeline / sqlb-serve -timeline)")
		follow  = flag.Bool("follow", false, "keep tailing the file for new rows after the replay (Ctrl-C to stop)")
		once    = flag.Bool("once", false, "render a single frame of the file's final state and exit")
		refresh = flag.Duration("refresh", 500*time.Millisecond, "poll cadence while following")
		delay   = flag.Duration("delay", 30*time.Millisecond, "frame delay while replaying recorded rows")
		width   = flag.Int("width", 0, "frame width in cells (0 = 80)")
		noColor = flag.Bool("no-color", false, "disable ANSI colors")
	)
	flag.Parse()
	if *file == "" && flag.NArg() > 0 {
		*file = flag.Arg(0)
	}
	if *file == "" {
		fatal("usage: sqlb-top -file run.csv [-follow] (see sqlb-sim -timeline / sqlb-serve -timeline)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// With -follow the file may not exist yet (producer still starting);
	// wait for it instead of failing.
	var tail *timeline.Tailer
	for {
		var err error
		tail, err = timeline.OpenTail(*file)
		if err == nil {
			break
		}
		if !*follow || !errors.Is(err, os.ErrNotExist) {
			fatal("%v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(*refresh):
		}
	}
	defer tail.Close()

	// The collector's rolling window is the dashboard's history: bounded
	// memory however long the timeline grows.
	col := timeline.NewCollector()
	dash := &timeline.Dashboard{Width: *width, Color: !*noColor}
	render := func() { fmt.Print(timeline.HomeAndClear + dash.Draw(col.Window())) }

	rows, err := tail.Poll()
	if err != nil {
		fatal("%v", err)
	}
	if *once {
		for _, s := range rows {
			col.Offer(s)
		}
		fmt.Print(dash.Draw(col.Window()))
		return
	}

	fmt.Print(timeline.HideCursor)
	defer fmt.Print(timeline.ShowCursor)

	// Replay the recorded prefix as an animation.
	for _, s := range rows {
		col.Offer(s)
		render()
		select {
		case <-ctx.Done():
			return
		case <-time.After(*delay):
		}
	}
	if len(rows) == 0 {
		render() // "waiting for snapshots" placeholder
	}
	if !*follow {
		return
	}

	// Live tail: poll for appended rows, re-render when any arrive.
	ticker := time.NewTicker(*refresh)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rows, err := tail.Poll()
			if err != nil {
				fatal("%v", err)
			}
			for _, s := range rows {
				col.Offer(s)
			}
			if len(rows) > 0 {
				render()
			}
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sqlb-top: "+format+"\n", args...)
	os.Exit(1)
}
