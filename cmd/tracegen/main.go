// Command tracegen generates capacity traces as CSV on stdout, or inspects
// an existing trace file.
//
//	tracegen -kind lte -duration 60s -mean 3e6 > lte.csv
//	tracegen -kind drop -before 2.5e6 -after 0.8e6 -dropat 10s > drop.csv
//	tracegen -inspect lte.csv
package main

import (
	"flag"
	"io"
	"math"
	"os"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Every flag value is checked, whatever the kind, before a trace is
// generated.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stderr := &cli.Printer{W: stderrW}
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		kind     = fs.String("kind", "drop", "trace kind: const | drop | staircase | oscillating | lte | wifi | randomwalk")
		duration = fs.Duration("duration", 60*time.Second, "trace length (synthetic kinds)")
		mean     = fs.Float64("mean", 3e6, "mean capacity, bits/s (lte/wifi/const)")
		before   = fs.Float64("before", 2.5e6, "pre-drop capacity, bits/s")
		after    = fs.Float64("after", 0.8e6, "post-drop capacity, bits/s")
		dropAt   = fs.Duration("dropat", 10*time.Second, "drop instant")
		seed     = fs.Int64("seed", 1, "random seed")
		inspect  = fs.String("inspect", "", "print statistics of an existing CSV trace instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		stderr.Printf("tracegen: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	if *inspect != "" {
		if err := inspectTrace(*inspect, stdoutW); err != nil {
			stderr.Printf("tracegen: %v\n", err)
			return 1
		}
		return 0
	}

	for _, r := range []struct {
		name string
		bps  float64
	}{{"mean", *mean}, {"before", *before}, {"after", *after}} {
		if !(r.bps > 0) || math.IsInf(r.bps, 1) {
			stderr.Printf("tracegen: -%s %v is not a positive finite rate\n", r.name, r.bps)
			return 2
		}
	}
	if *duration <= 0 {
		stderr.Printf("tracegen: -duration %v must be positive\n", *duration)
		return 2
	}
	if *dropAt <= 0 {
		stderr.Printf("tracegen: -dropat %v must be positive\n", *dropAt)
		return 2
	}

	var tr *trace.Trace
	switch *kind {
	case "const":
		tr = trace.Constant(units.BitsPerSec(*mean))
	case "drop":
		tr = trace.StepDrop(units.BitsPerSec(*before), units.BitsPerSec(*after), *dropAt)
	case "staircase":
		tr = trace.Staircase(10*time.Second, units.BitsPerSec(*before),
			units.BitsPerSec((*before+*after)/2), units.BitsPerSec(*after))
	case "oscillating":
		tr = trace.Oscillating(units.BitsPerSec(*before), units.BitsPerSec(*after), 5*time.Second, *duration)
	case "lte":
		tr = trace.LTE(*seed, *duration, trace.LTEConfig{Mean: *mean})
	case "wifi":
		tr = trace.WiFi(*seed, *duration, trace.WiFiConfig{Mean: *mean})
	case "randomwalk":
		tr = trace.RandomWalk(*seed, *duration, 200*time.Millisecond, *mean, *mean/5, *mean*2)
	default:
		stderr.Printf("tracegen: unknown trace kind %q\n", *kind)
		return 2
	}
	if err := tr.WriteCSV(stdoutW); err != nil {
		stderr.Printf("tracegen: %v\n", err)
		return 1
	}
	return 0
}

// inspectTrace prints the breakpoint count, span and rate statistics of
// a CSV trace file to w.
func inspectTrace(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadCSV(path, f)
	if err != nil {
		return err
	}
	stdout := &cli.Printer{W: w}
	points := tr.Points()
	end := points[len(points)-1].At + time.Second
	stdout.Printf("trace %s: %d breakpoints, span %v\n", tr.Name(), len(points), points[len(points)-1].At)
	stdout.Printf("mean %.2f Mbps, min %.2f Mbps\n",
		tr.MeanRate(0, end).Mbps(), tr.MinRate(0, end).Mbps())
	return stdout.Err
}
