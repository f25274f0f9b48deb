// Command benchdrop regenerates the paper's tables and figures.
//
//	benchdrop -exp all
//	benchdrop -exp table1 -seeds 10
//	benchdrop -exp figure1 -seed 3 -format csv
//	benchdrop -exp all -parallel 8 -progress
//	benchdrop -exp frontier -grid small
//	benchdrop -exp scenarios -scenario standard,lte,oscillating -duration 10s
//	benchdrop -list-scenarios
//
// The experiment ids come from the experiments registry: the paper's
// tables and figures (table1..table3, figure1..figure10), which make up
// "all", and two corpus sweeps that stay out of "all", whose bytes are
// pinned: "frontier" maps the adaptive-vs-baseline win margin over the
// generated drop grid, and "scenarios" runs the declarative scenario
// corpus under both controllers. -scenario takes preset names or
// YAML/JSON scenario files, comma-separated. Every experiment renders as
// text or, with -format csv, as CSV rows for plotting.
//
// Every experiment cell — one (scenario, controller, seed) session — is a
// pure function of its config, so cells run concurrently on -parallel
// workers (default GOMAXPROCS) and merge in canonical cell order: the
// output is byte-identical to -parallel 1.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"rtcadapt/internal/cli"
	"rtcadapt/internal/experiments"
	"rtcadapt/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
// Every flag is checked before any experiment runs: a bad invocation
// exits 2, a failure while running or writing output exits 1.
func run(args []string, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	stderr := &cli.Printer{W: stderrW}
	code := runCmd(args, stdout, stderr, stderrW)
	if code == 0 && stdout.Err != nil {
		stderr.Printf("benchdrop: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdout, stderr *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("benchdrop", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		exp           = fs.String("exp", "all", "experiment id: "+strings.Join(experiments.ExperimentIDs(), " | ")+" | all")
		seeds         = fs.Int("seeds", 5, "number of seeds to average over")
		seed          = fs.Int64("seed", 1, "seed for single-run figures")
		format        = fs.String("format", "text", "output format: text | csv")
		parallel      = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size; 1 runs fully sequentially")
		progress      = fs.Bool("progress", false, "log per-cell progress to stderr")
		scenarios     = fs.String("scenario", "", "comma-separated scenario presets or YAML/JSON files for -exp scenarios (default: every preset)")
		duration      = fs.Duration("duration", 30*time.Second, "per-session length for -exp scenarios")
		gridKind      = fs.String("grid", "default", "frontier sweep grid: default | small")
		listScenarios = fs.Bool("list-scenarios", false, "list the built-in scenario presets and fleet populations, then exit")
		cpuprof       = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memprof       = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		stderr.Printf("benchdrop: %v\n", err)
		return 2
	}
	if fs.NArg() != 0 {
		return usage(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if *format != "text" && *format != "csv" {
		return usage(fmt.Errorf("unknown -format %q (want text | csv)", *format))
	}
	exps, err := experiments.Select(*exp)
	if err != nil {
		return usage(err)
	}
	opts := experiments.Options{Seed: *seed, Duration: *duration}
	if opts.Seeds, err = seedRange(*seeds); err != nil {
		return usage(err)
	}
	if opts.Grid, err = experiments.FrontierGrid(*gridKind); err != nil {
		return usage(err)
	}
	if *scenarios != "" {
		if opts.Scenarios, err = cli.ResolveScenarios(*scenarios); err != nil {
			return usage(err)
		}
	}

	if *listScenarios {
		for _, name := range scenario.PresetNames() {
			stdout.Printf("%s\n", name)
		}
		for _, name := range scenario.PopulationNames() {
			stdout.Printf("%s (fleet population)\n", name)
		}
		return 0
	}

	r := &experiments.Runner{Workers: *parallel}
	if *progress {
		r.Progress = func(done, total int, label string) {
			stderr.Printf("[%d/%d] %s\n", done, total, label)
		}
	}
	var stopCPU func() error
	if *cpuprof != "" {
		if stopCPU, err = cli.StartCPUProfile(*cpuprof); err != nil {
			stderr.Printf("benchdrop: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, e := range exps {
		out, err := e.Run(r, opts)
		if err != nil {
			stderr.Printf("benchdrop: %v\n", err)
			code = 1
			break
		}
		if *format == "text" {
			stdout.Printf("%s\n", out.Text)
			continue
		}
		if *exp == "all" {
			stdout.Printf("# %s\n", e.ID)
		}
		if csv.NewWriter(stdout).WriteAll(out.CSV) != nil {
			break // stdout keeps the error for run to report
		}
	}
	if stopCPU != nil {
		if err := stopCPU(); err != nil {
			stderr.Printf("benchdrop: %v\n", err)
		}
	}
	if *memprof != "" && code == 0 {
		if err := cli.WriteHeapProfile(*memprof); err != nil {
			stderr.Printf("benchdrop: %v\n", err)
		}
	}
	return code
}

// seedRange returns the seeds 1..n that multi-seed experiments average
// over; n must be positive.
func seedRange(n int) ([]int64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("-seeds %d must be positive", n)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds, nil
}
