// Command benchjson converts `go test -bench` text output into the
// canonical JSON baseline format and compares runs against a committed
// baseline.
//
// Examples:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH.json
//	benchjson -diff BENCH_old.json BENCH_new.json
//	benchjson -ab base.jsonl new.jsonl
//	go test -bench . -benchmem ./... | benchjson -against BENCH.json -max-ns-ratio 1.3
//	go test -bench . -benchmem ./... | benchjson -against auto -max-ns-ratio 1.3
//
// `-against auto` resolves the baseline to the highest-numbered
// BENCH_<n>.json in the current directory, so compare runs follow the
// newest committed generation without hard-coding it.
//
// `-ab` compares interleaved repository-benchmark runs instead: each file
// holds the JSON report lines of N `perfbench/run.sh` runs of one
// workload, and the table gives each metric's median and interquartile
// range per side, the ratio of medians, how many run pairs read higher on
// the new side, and a Mann–Whitney U p-value. scripts/bench-ab.sh
// produces the files.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rtcadapt/internal/benchjson"
	"rtcadapt/internal/cli"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdin io.Reader, stdoutW, stderrW io.Writer) int {
	stdout := &cli.Printer{W: stdoutW}
	code := runCmd(args, stdin, stdout, stderrW)
	if code == 0 && stdout.Err != nil {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "benchjson: writing output: %v\n", stdout.Err)
		return 1
	}
	return code
}

func runCmd(args []string, stdin io.Reader, stdout *cli.Printer, stderrW io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	var (
		out        = fs.String("o", "", "write canonical JSON to this file (default stdout)")
		diff       = fs.String("diff", "", "compare this baseline JSON against a second JSON file argument")
		against    = fs.String("against", "", "compare parsed stdin against this baseline JSON (\"auto\": highest-numbered BENCH_<n>.json here)")
		ab         = fs.String("ab", "", "compare perfbench report lines in this base file against a second file argument")
		maxNsRatio = fs.Float64("max-ns-ratio", 0, "with -against/-diff: fail when new/old ns/op exceeds this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		//lint:ignore errdrop stderr is the last resort; its own failure has nowhere to go
		fmt.Fprintf(stderrW, "benchjson: %v\n", err)
		return 1
	}

	switch {
	case *ab != "":
		if fs.NArg() != 1 {
			return fail(fmt.Errorf("-ab needs exactly one report file argument"))
		}
		base, err := benchjson.ReadReports(*ab)
		if err != nil {
			return fail(err)
		}
		newReps, err := benchjson.ReadReports(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		if len(base) == 0 || len(newReps) == 0 {
			return fail(fmt.Errorf("-ab: %d base and %d new reports, want at least one each", len(base), len(newReps)))
		}
		reportAB(benchjson.CompareAB(base, newReps), stdout)
		return 0
	case *diff != "":
		if fs.NArg() != 1 {
			return fail(fmt.Errorf("-diff needs exactly one JSON file argument"))
		}
		oldEs, err := benchjson.ReadFile(*diff)
		if err != nil {
			return fail(err)
		}
		newEs, err := benchjson.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		return report(benchjson.Diff(oldEs, newEs), *maxNsRatio, stdout)
	case *against != "":
		path := *against
		if path == "auto" {
			var err error
			if path, err = latestBaseline("."); err != nil {
				return fail(err)
			}
			stdout.Printf("benchjson: comparing against %s\n", path)
		}
		oldEs, err := benchjson.ReadFile(path)
		if err != nil {
			return fail(err)
		}
		newEs, err := benchjson.Parse(stdin)
		if err != nil {
			return fail(err)
		}
		return report(benchjson.Diff(oldEs, newEs), *maxNsRatio, stdout)
	default:
		es, err := benchjson.Parse(stdin)
		if err != nil {
			return fail(err)
		}
		if len(es) == 0 {
			return fail(fmt.Errorf("no benchmark lines on stdin"))
		}
		w := io.Writer(stdout.W)
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			w = f
		}
		if err := benchjson.WriteJSON(w, es); err != nil {
			return fail(err)
		}
		if *out != "" {
			stdout.Printf("benchjson: wrote %d entries to %s\n", len(es), *out)
		}
		return 0
	}
}

// latestBaseline returns the highest-numbered BENCH_<n>.json in dir —
// the newest committed baseline generation. Numeric comparison, not
// lexical: BENCH_10.json beats BENCH_7.json.
func latestBaseline(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best := -1
	bestName := ""
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), "BENCH_")
		if !ok {
			continue
		}
		numStr, ok := strings.CutSuffix(rest, ".json")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(numStr)
		if err != nil || n < 0 {
			continue
		}
		if n > best {
			best, bestName = n, e.Name()
		}
	}
	if best < 0 {
		return "", fmt.Errorf("no BENCH_<n>.json baseline found in %s", dir)
	}
	return filepath.Join(dir, bestName), nil
}

// report prints a before/after table and returns 1 when any benchmark
// regressed past maxNsRatio (0 disables the gate).
func report(ds []benchjson.Delta, maxNsRatio float64, stdout *cli.Printer) int {
	regressed := 0
	stdout.Printf("%-55s %12s %12s %8s %8s\n", "benchmark", "old ns/op", "new ns/op", "ns Δ", "allocs Δ")
	for _, d := range ds {
		name := d.Pkg + "." + d.Name
		switch {
		case d.Old == nil:
			stdout.Printf("%-55s %12s %12.0f %8s %8s\n", name, "-", d.New.NsPerOp, "new", "")
		case d.New == nil:
			stdout.Printf("%-55s %12.0f %12s %8s %8s\n", name, d.Old.NsPerOp, "-", "gone", "")
		default:
			nsR, alR := d.NsRatio(), d.AllocsRatio()
			stdout.Printf("%-55s %12.0f %12.0f %7.2fx %7.2fx\n", name, d.Old.NsPerOp, d.New.NsPerOp, nsR, alR)
			if maxNsRatio > 0 && nsR > maxNsRatio {
				regressed++
				stdout.Printf("REGRESSION: %s ns/op ratio %.2f exceeds %.2f\n", name, nsR, maxNsRatio)
			}
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

// reportAB prints an A/B comparison as a Markdown table.
func reportAB(rows []benchjson.ABRow, stdout *cli.Printer) {
	stdout.Printf("| metric | unit | base median (IQR) | new median (IQR) | new/base | new higher | p (Mann–Whitney) |\n")
	stdout.Printf("|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		stdout.Printf("| %s | %s | %.4g (%.2g) | %.4g (%.2g) | %.3f | %d/%d | %.2g |\n",
			r.Metric, r.Unit, r.Base.Median, r.Base.IQR, r.New.Median, r.New.IQR, r.Ratio, r.Higher, r.Pairs, r.P)
	}
}
