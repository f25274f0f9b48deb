// Command rtcplot runs RTC sessions and renders ASCII charts in the
// terminal: per-frame latency timelines (optionally comparing two
// controllers), the control-plane rate timeline, and post-drop latency
// CDFs.
//
//	rtcplot -chart latency -compare
//	rtcplot -chart rates -controller adaptive
//	rtcplot -chart cdf
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/plot"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Every flag problem is diagnosed on stderr before any session runs.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "rtcplot: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("rtcplot", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		chart      = fs.String("chart", "latency", "chart: latency | rates | cdf")
		controller = fs.String("controller", "adaptive", "controller for single-series charts")
		compare    = fs.Bool("compare", false, "overlay native-rc and adaptive (latency/cdf)")
		before     = fs.Float64("before", 2.5e6, "capacity before the drop, bits/s")
		after      = fs.Float64("after", 0.8e6, "capacity after the drop, bits/s")
		dropAt     = fs.Duration("dropat", 10*time.Second, "drop instant")
		duration   = fs.Duration("duration", 25*time.Second, "session length")
		seed       = fs.Int64("seed", 1, "random seed")
		width      = fs.Int("width", 72, "chart width")
		height     = fs.Int("height", 14, "chart height")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		stderr.Printf("rtcplot: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	switch *chart {
	case "latency", "rates", "cdf":
	default:
		stderr.Printf("rtcplot: unknown -chart %q (want latency | rates | cdf)\n", *chart)
		return 2
	}
	names := []string{*controller}
	if *compare && *chart != "rates" {
		names = []string{"native-rc", "adaptive"}
	}

	// Build and validate every session before running any, so a bad flag
	// is a diagnostic rather than a panic halfway through the chart.
	tr, err := trace.New("drop",
		trace.Point{At: 0, Bps: units.BitsPerSec(*before)},
		trace.Point{At: *dropAt, Bps: units.BitsPerSec(*after)})
	if err != nil {
		stderr.Printf("rtcplot: -before/-after/-dropat: %v\n", err)
		return 2
	}
	cfgs := make([]session.Config, 0, len(names))
	for _, name := range names {
		ctrl, err := cli.BuildController(name, false)
		if err != nil {
			stderr.Printf("rtcplot: %v\n", err)
			return 2
		}
		cfg := session.Config{
			Duration:    *duration,
			Seed:        *seed,
			Content:     video.TalkingHead,
			Trace:       tr,
			InitialRate: 1e6,
			Controller:  ctrl,
		}
		if err := cfg.Validate(); err != nil {
			stderr.Printf("rtcplot: %v\n", err)
			return 2
		}
		cfgs = append(cfgs, cfg)
	}

	cfg := plot.Config{Width: *width, Height: *height}
	switch *chart {
	case "latency":
		cfg.XLabel, cfg.YLabel = "capture time (s)", "frame latency (ms)"
		var series []plot.Series
		for i, c := range cfgs {
			x, y := metrics.DelaySeries(session.Run(c).Records)
			series = append(series, plot.Series{Name: names[i], X: x, Y: y})
		}
		stdout.Printf("frame latency, %.1f -> %.1f Mbps at t=%v\n\n", *before/1e6, *after/1e6, *dropAt)
		stdout.Printf("%s", plot.Line(cfg, series...))
	case "rates":
		cfg.XLabel, cfg.YLabel = "time (s)", "rate (Mbps)"
		res := session.Run(cfgs[0])
		var capS, estS, encS plot.Series
		capS.Name, estS.Name, encS.Name = "capacity", "estimate", "encoder"
		for _, p := range res.Timeline {
			t := p.At.Seconds()
			capS.X = append(capS.X, t)
			capS.Y = append(capS.Y, p.Capacity.Mbps())
			estS.X = append(estS.X, t)
			estS.Y = append(estS.Y, p.Estimate.Mbps())
			encS.X = append(encS.X, t)
			encS.Y = append(encS.Y, p.EncoderTarget.Mbps())
		}
		stdout.Printf("control plane, %s controller\n\n", *controller)
		stdout.Printf("%s", plot.Line(cfg, capS, estS, encS))
	case "cdf":
		cfg.XLabel, cfg.YLabel = "frame latency (ms)", "CDF"
		var series []plot.Series
		for i, c := range cfgs {
			ds, fs := metrics.CDF(session.Run(c).Records, *dropAt, *dropAt+5*time.Second)
			series = append(series, plot.Series{Name: names[i], X: ds, Y: fs})
		}
		stdout.Printf("post-drop latency CDF (%v .. %v)\n\n", *dropAt, *dropAt+5*time.Second)
		stdout.Printf("%s", plot.CDF(cfg, series...))
	}
	return 0
}
