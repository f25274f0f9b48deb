// Command rtctrace reads flight-recorder traces: it inspects one trace
// file or diffs two traces event by event. Record a trace with
// `rtcsim -record`.
//
// Examples:
//
//	rtcsim -duration 5s -record trace.json  # record one session (Chrome JSON)
//	rtctrace -inspect trace.json            # counters + timeline of a saved trace
//	rtctrace -diff a.csv b.json             # exit 1 at the first divergent event
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/plot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "rtctrace: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("rtctrace", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		width   = fs.Int("width", 64, "ASCII timeline width in buckets")
		inspect = fs.Bool("inspect", false, "inspect the trace file given as the positional argument")
		diff    = fs.Bool("diff", false, "diff the two trace files given as positional arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *inspect && *diff:
		stderr.Printf("rtctrace: -inspect and -diff are mutually exclusive\n")
		return 2
	case *inspect:
		if fs.NArg() != 1 {
			stderr.Printf("rtctrace: -inspect needs exactly one trace file\n")
			return 2
		}
		return runInspect(fs.Arg(0), *width, stdout, stderr)
	case *diff:
		if fs.NArg() != 2 {
			stderr.Printf("rtctrace: -diff needs exactly two trace files\n")
			return 2
		}
		return runDiff(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	stderr.Printf("rtctrace: need -inspect or -diff (record a trace with rtcsim -record)\n")
	return 2
}

// readTraceFile loads one trace file through the format-sniffing reader.
func readTraceFile(path string) (*obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := obs.ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// runInspect prints a summary, the counters, and the ASCII timeline of a
// saved trace.
func runInspect(path string, width int, stdout, stderr *cli.Printer) int {
	t, err := readTraceFile(path)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	var span time.Duration
	if n := len(t.Events); n > 0 {
		span = t.Events[n-1].At - t.Events[0].At
	}
	stdout.Printf("%s: %d events over %.3fs, %d dropped\n",
		path, len(t.Events), span.Seconds(), t.DroppedEvents)
	for _, c := range t.Counters {
		stdout.Printf("  %-36s %g\n", c.Name, c.Value)
	}
	stdout.Printf("%s", plot.ObsTimeline(t, width))
	return 0
}

// runDiff reports the first divergence between two traces; exit 0 means
// identical.
func runDiff(pathA, pathB string, stdout, stderr *cli.Printer) int {
	a, err := readTraceFile(pathA)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	b, err := readTraceFile(pathB)
	if err != nil {
		stderr.Printf("rtctrace: %v\n", err)
		return 1
	}
	if d := obs.Diff(a, b); d != nil {
		stdout.Printf("traces diverge: %s\n", d)
		return 1
	}
	stdout.Printf("traces identical: %d events, %d counters\n", len(a.Events), len(a.Counters))
	return 0
}
