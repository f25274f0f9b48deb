// Command perfbench is the repository benchmark. It runs one workload for
// a fixed host-time budget, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), one
// per line, followed by a JSON result as the last line of standard output.
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload drop --seed 1 --seconds 30 --trace 0
//
// # Workloads
//
//   - drop: the fleet's drop population (2.5 Mbps stepping to 1.8, 1.5,
//     1.0 or 0.5 Mbps at a third of a 10 s session, talking-head and
//     gaming content, GCC), 256 paths each run as a native-rc/adaptive
//     pair on the same seed. The paper's motivating case; per-frame and
//     per-session work (codec, core, video, session set-up) is a large
//     share of its cost.
//   - hd-loss: sports content on a 12 -> 6 Mbps step at 4 s, starting at
//     8 Mbps, with 0.5% loss, NACK and (every other pair) FEC, 256
//     native-rc/adaptive pairs. About five times the packets of a drop
//     session, so the per-packet layers (simtime, netem, pacer, rtp, fec,
//     fb, cc) dominate.
//   - paper-suite: the 13 tables and figures of `benchdrop -exp all` at
//     seeds s..s+4 (s = --seed), on GOMAXPROCS runner workers. At seed 1
//     (benchdrop's defaults) every run must match docs/results_snapshot.txt
//     except its first line; at any seed all runs must render the same
//     text. The only workload that loads the experiments runner's fan-out
//     and tail, the SFU, audio, probing and the non-GCC estimators.
//
// A drop or hd-loss run repeats its fixed batch until the budget is spent;
// each repetition must reproduce the first exactly. The digest line hashes
// the batch's session summaries (or the suite's text), so two commits can
// be compared exactly.
//
// # End-to-end metrics
//
// sessions_per_s, cpu_ms_per_session (process user+sys CPU) and
// session_ms_p50 cover every session of the run; for paper-suite a cell
// counts as one session. setup_s is the median of 31 repetitions of the
// set-up that precedes the first session.
// peak_heap_mb is the median over 500 ms windows of the peak live-object
// heap. The sim-* metrics are virtual-time results, identical on every
// run of one seed: sim_delay_p95_ms and sim_ssim average the adaptive
// halves' whole-session P95 network delay and displayed SSIM,
// sim_freeze_ms averages total freeze over all sessions, and
// delay_reduction_pct and ssim_gain_pct compare the adaptive and
// native-rc means. For paper-suite they are taken over its Table 1 cells,
// rebuilt from the exported drop matrix and run once after the suite. A
// session that panics, fails Validate or breaks an output identity counts
// as failed; failed_frac is printed beside the metrics.
//
// # Per-layer metrics
//
// A traced run first runs the batch untraced (allocation, GC and host-time
// baselines and the reference digest), then traced: the session's
// core.Controller, cc.Estimator and video.FrameSource are wrapped, and the
// scheduler is driven by Peek/Step to count events and sample queue depth.
// The traced digest must equal the untraced one. Replays then time
// codec, rtp, pacer, netem, fb and simtime on the inputs the first traced
// sessions fed them; the codec and cc replays must reproduce the in-situ
// outputs exactly. A CPU profile of the traced sessions is folded into
// per-layer self-time shares (cpu_share.*), and the ledger compares the
// per-layer costs times counts with the untraced host time of a session.
// The paper suite traces its Table 1 cells, rebuilt from the exported drop
// matrix, and adds the runner's cell times and tail idle share.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how often a run repeats its set-up; setup_s is the median.
const setupRuns = 31

type options struct {
	workload string
	seed     int64
	budget   time.Duration
	workers  int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: drop | hd-loss | paper-suite")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		workers:  runtime.GOMAXPROCS(0),
	}
	rep, err := runWorkload(o, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	specs := endToEndSpecs()
	if *traced == 1 {
		specs = perLayerSpecs()
	}
	rep.notes = append([]string{
		"host: " + hostFingerprint(),
		fmt.Sprintf("workload: %s seed=%d seconds=%g trace=%d", o.workload, o.seed, *seconds, *traced),
	}, rep.notes...)
	if err := rep.write(stdout, specs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// workloadNames lists the workloads in BENCHMARK.json order.
func workloadNames() []string { return []string{"drop", "hd-loss", "paper-suite"} }

func runWorkload(o options, traced bool) (*report, error) {
	switch o.workload {
	case "drop":
		return sessionWorkload(o, traced, dropPlan)
	case "hd-loss":
		return sessionWorkload(o, traced, hdLossPlan)
	case "paper-suite":
		return paperWorkload(o, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want drop, hd-loss or paper-suite)", o.workload)
}

// measureSetup runs fn setupRuns times and returns the last result with
// the median duration in seconds.
func measureSetup[T any](fn func() (T, error)) (T, float64, error) {
	var out T
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		v, err := fn()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return out, 0, err
		}
		out = v
	}
	return out, medianFloat(secs), nil
}

// setupPlan is a session workload's set-up: derive the batch from the
// seed and build and validate every session config once, which compiles
// each path's capacity trace.
func setupPlan(o options, mk func(int64) (*plan, error)) (*plan, error) {
	p, err := mk(o.seed)
	if err != nil {
		return nil, err
	}
	for j := 0; j < p.n; j++ {
		cfg := p.build(j)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s session %d: %w", p.name, j, err)
		}
	}
	return p, nil
}

// sessionWorkload runs a drop or hd-loss batch: untraced for the
// end-to-end metrics, or untraced then traced for the per-layer metrics.
func sessionWorkload(o options, traced bool, mk func(int64) (*plan, error)) (*report, error) {
	p, setup, err := measureSetup(func() (*plan, error) { return setupPlan(o, mk) })
	if err != nil {
		return nil, err
	}
	if traced {
		return tracedSessions(o, p, nil)
	}
	ph := runPhase(p, o.budget, runUntraced, nil)
	rep := &report{correct: true, metrics: metricSet{}}
	rep.attempted, rep.failed, rep.digest = ph.sessions, ph.failed, p.name+" "+ph.digest
	for _, pr := range ph.problems {
		rep.fail("%s", pr)
	}
	for k, v := range simMetrics(p, ph.batch) {
		rep.metrics[k] = v
	}
	n := float64(ph.sessions)
	rep.metrics["sessions_per_s"] = n / ph.wall.Seconds()
	rep.metrics["cpu_ms_per_session"] = ph.res.cpu.Seconds() * 1e3 / n
	rep.metrics["session_ms_p50"] = quantile(ph.wallNs, 0.5) / 1e6
	rep.metrics["setup_s"] = setup
	rep.metrics["peak_heap_mb"] = ph.mon.peakHeapMB()
	rep.metrics["failed_frac"] = float64(ph.failed) / n
	rep.notes = append(rep.notes, fmt.Sprintf("batch: %d sessions (%d native-rc/adaptive pairs), %d run in %.3fs on one goroutine",
		p.n, p.n/2, ph.sessions, ph.wall.Seconds()))
	return rep, nil
}

// paperWorkload runs the paper suite for the budget. Its traced run adds
// the experiments-runner metrics to the per-layer metrics of the Table 1
// cells, which it traces in place of the suite's internal cells.
func paperWorkload(o options, traced bool) (*report, error) {
	snapshot, setup, err := measureSetup(readSnapshot)
	if err != nil {
		return nil, err
	}
	budget := o.budget
	if traced {
		budget = o.budget / 3
	}
	sr := runSuites(o.seed, o.workers, budget, snapshot)
	rep := &report{correct: true, metrics: metricSet{}}
	if traced {
		if rep, err = tracedSessions(o, table1Plan(o.seed), sr); err != nil {
			return nil, err
		}
	}
	rep.attempted += sr.cells
	rep.failed += sr.failedCells
	rep.digest = strings.TrimSpace(rep.digest + " paper-suite " + sr.digest)
	for _, pr := range sr.problems {
		rep.fail("%s", pr)
	}
	if !traced {
		// The sim metrics come from the Table 1 cells, rebuilt from the
		// exported drop matrix and run once after the timed suite runs,
		// so they are defined as for the other workloads.
		cells := runPhase(table1Plan(o.seed), 0, runUntraced, nil)
		rep.attempted += cells.sessions
		rep.failed += cells.failed
		for _, pr := range cells.problems {
			rep.fail("%s", pr)
		}
		for k, v := range simMetrics(table1Plan(o.seed), cells.batch) {
			rep.metrics[k] = v
		}
		n := float64(sr.cells)
		rep.metrics["sessions_per_s"] = n / sr.wall.Seconds()
		rep.metrics["cpu_ms_per_session"] = sr.res.cpu.Seconds() * 1e3 / n
		rep.metrics["session_ms_p50"] = quantile(sr.clock.cellNs, 0.5) / 1e6
		rep.metrics["setup_s"] = setup
		rep.metrics["peak_heap_mb"] = sr.mon.peakHeapMB()
	}
	rep.metrics["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	rep.notes = append(rep.notes, fmt.Sprintf("paper suite: %d runs, %d cells in %.3fs on %d workers, snapshot check %v",
		sr.runs, sr.cells, sr.wall.Seconds(), o.workers, o.seed == 1))
	return rep, nil
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
