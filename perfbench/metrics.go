package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricSpec names one reported metric. The end-to-end and per-layer lists
// below are the benchmark's contract: BENCHMARK.json mirrors them and a
// test keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEndSpecs are the metrics an untraced run prints. Host-time metrics
// carry host units; sim-* metrics are virtual-time results of the fixed
// session batch, identical on every run of one seed.
func endToEndSpecs() []metricSpec {
	return []metricSpec{
		{"sessions_per_s", "sessions/s", "higher", 0.25},
		{"cpu_ms_per_session", "ms", "lower", 0.25},
		{"session_ms_p50", "ms", "lower", 0.25},
		{"setup_s", "s", "lower", 0.25},
		{"peak_heap_mb", "MB", "lower", 0.15},
		{"sim_delay_p95_ms", "sim-ms", "lower", 0.2},
		{"sim_ssim", "ssim", "higher", 0.01},
		{"sim_freeze_ms", "sim-ms", "lower", 0.25},
		{"delay_reduction_pct", "%", "higher", 0.1},
		{"ssim_gain_pct", "%", "higher", 0.25},
	}
}

// profileLayers are the buckets a CPU profile folds into (cpu_share.*).
// Helper packages (stats, units, trace, obs, audio, math, sort, ...) fold
// into the nearest calling layer.
func profileLayers() []string {
	return []string{"simtime", "netem", "pacer", "rtp", "fec", "fb", "cc", "codec",
		"core", "video", "session", "metrics", "experiments", "runtime", "other"}
}

// perLayerSpecs are the metrics a traced run prints. Counts are per
// session unless the unit says otherwise. For work counts "lower" means
// less work for the same result.
func perLayerSpecs() []metricSpec {
	specs := []metricSpec{
		{"simtime.events", "events/session", "lower", 0},
		{"simtime.depth_mean", "events", "lower", 0},
		{"simtime.depth_max", "events", "lower", 0},
		{"simtime.ns_per_event", "ns", "lower", 0},
		{"netem.packets", "packets/session", "lower", 0},
		{"netem.ns_per_packet", "ns", "lower", 0},
		{"pacer.ns_per_packet", "ns", "lower", 0},
		{"rtp.packetize_ns", "ns", "lower", 0},
		{"rtp.reassemble_ns", "ns", "lower", 0},
		{"fb.reports", "reports/session", "lower", 0},
		{"fb.results_per_report", "results", "higher", 0},
		{"fb.ns_per_report", "ns", "lower", 0},
		{"cc.calls", "calls/session", "lower", 0},
		{"cc.ns_per_call", "ns", "lower", 0},
		{"cc.replay_mismatch", "count", "lower", 0},
		{"codec.frames", "frames/session", "lower", 0},
		{"codec.ns_per_frame", "ns", "lower", 0},
		{"codec.bytes_per_frame", "bytes", "lower", 0},
		{"codec.replay_mismatch", "count", "lower", 0},
		{"core.feedback_calls", "calls/session", "lower", 0},
		{"core.ns_per_feedback", "ns", "lower", 0},
		{"core.ns_per_frame", "ns", "lower", 0},
		{"core.skipped_frac", "frac", "lower", 0},
		{"video.ns_per_frame", "ns", "lower", 0},
		{"session.build_us", "us", "lower", 0},
		{"session.new_us", "us", "lower", 0},
		{"session.result_us", "us", "lower", 0},
		{"session.host_ms_p99", "ms", "lower", 0},
		{"session.alloc_kb", "KiB/session", "lower", 0},
		{"session.allocs", "allocs/session", "lower", 0},
		{"metrics.summarize_us", "us", "lower", 0},
		{"netem.delivered_frac", "frac", "higher", 0},
		{"netem.queue_drops", "packets/session", "lower", 0},
		{"netem.loss_drops", "packets/session", "lower", 0},
		{"pacer.dropped", "packets/session", "lower", 0},
		{"rtp.nacks", "nacks/session", "lower", 0},
		{"rtp.rtx_frac", "frac", "lower", 0},
		{"fec.repairs", "packets/session", "lower", 0},
		{"fec.recovered", "packets/session", "higher", 0},
		{"gc.cycles", "cycles/session", "lower", 0},
		{"gc.pause_ms", "ms/cycle", "lower", 0},
		{"gc.cpu_frac", "frac", "lower", 0},
		{"experiments.cells", "cells/suite", "lower", 0},
		{"experiments.cell_ms_p50", "ms", "lower", 0},
		{"experiments.tail_idle_frac", "frac", "lower", 0},
		{"failed_frac", "frac", "lower", 0},
		{"ledger.unattributed_frac", "frac", "lower", 0},
		{"trace.overhead_frac", "frac", "lower", 0},
	}
	for _, l := range profileLayers() {
		specs = append(specs, metricSpec{"cpu_share." + l, "frac", "lower", 0})
	}
	return specs
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// report is one run's outcome: the correctness verdict, the session
// counts and the measured metrics, plus the provenance lines printed
// before the result.
type report struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
	digest            string
	notes             []string
	problems          []string
}

// fail records a correctness problem; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// maxProblems bounds the problem lines a run prints.
const maxProblems = 20

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints the human-readable lines, then the JSON result as the last
// line. Only the metrics in specs go into the JSON; every other measured
// value is printed as a plain line. A missing or non-finite metric makes
// the run incorrect.
func (r *report) write(w io.Writer, specs []metricSpec) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if r.digest != "" {
		fmt.Fprintf(w, "digest: %s\n", r.digest)
	}
	out := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	inJSON := map[string]bool{}
	for _, s := range specs {
		inJSON[s.Name] = true
		v, ok := r.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s missing or not finite (%v)", s.Name, v)
			v = 0
		}
		out.Metrics[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
		fmt.Fprintf(w, "%-28s %.6g %s\n", s.Name, v, s.Unit)
	}
	var extra []string
	for name := range r.metrics {
		if !inJSON[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "%-28s %.6g\n", name, r.metrics[name])
	}
	if r.attempted < 1 {
		r.fail("no session attempted")
		r.attempted = 1
	}
	for i, p := range r.problems {
		if i == maxProblems {
			fmt.Fprintf(w, "problem: ... and %d more\n", len(r.problems)-i)
			break
		}
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	out.Correct = r.correct
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(b)))
	return err
}
