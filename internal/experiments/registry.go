package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rtcadapt/internal/scenario"
)

// Experiment is one entry of the evaluation suite's registry.
type Experiment struct {
	// ID names the experiment on the command line ("table1", "frontier").
	ID string
	// Paper marks the poster's tables and figures, which make up "all".
	// The corpus sweeps (frontier, scenarios) stay out so that
	// docs/results_snapshot.txt stays pinned.
	Paper bool
	// Run runs the experiment once and renders it both ways.
	Run func(r *Runner, o Options) (Output, error)
}

// Options parameterizes one registry run.
type Options struct {
	// Seeds are the seeds multi-seed experiments average over; empty
	// means DefaultSeeds.
	Seeds []int64
	// Seed is figure 1's single run.
	Seed int64
	// Grid is the frontier sweep; the zero value is the default grid.
	Grid scenario.Grid
	// Scenarios are the corpus mini-sweep's scenarios (nil: every
	// preset); Duration is the capacity span model scenarios generate.
	Scenarios []scenario.Scenario
	Duration  time.Duration
}

// Output is one run of an experiment, rendered both ways.
type Output struct {
	// Text is the rendered table or figure.
	Text string
	// CSV is the header row followed by one row per data point, for
	// piping into external plotting tools.
	CSV [][]string
}

// newOutput starts an Output from its text and CSV header.
func newOutput(text string, header ...string) Output {
	return Output{Text: text, CSV: [][]string{header}}
}

// add appends one CSV row.
func (o *Output) add(cells ...string) { o.CSV = append(o.CSV, cells) }

// Registry lists every experiment in presentation order: the 13 paper
// tables and figures, then the frontier and scenario-corpus sweeps.
func Registry() []Experiment {
	return []Experiment{
		{"figure1", true, func(r *Runner, o Options) (Output, error) {
			series := r.Figure1(o.Seed)
			out := newOutput(RenderFigure1(series), "controller", "capture_s", "latency_ms")
			for _, s := range series {
				for i := range s.X {
					out.add(string(s.Kind), num(s.X[i], 3), num(s.Y[i], 1))
				}
			}
			return out, nil
		}},
		{"table1", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Table1(o.Seeds)
			out := newOutput(RenderTable1(rows), "scenario", "content", "baseline_p95_ms", "baseline_ci_ms",
				"adaptive_p95_ms", "adaptive_ci_ms", "reduction_pct", "significant")
			for _, x := range rows {
				out.add(x.Scenario.Name, x.Scenario.Content.String(),
					ms(x.BaselineP95), ms(x.BaselineCI), ms(x.AdaptiveP95), ms(x.AdaptiveCI),
					num(x.ReductionPct, 2), strconv.FormatBool(x.Significant))
			}
			return out, nil
		}},
		{"table2", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Table2(o.Seeds)
			out := newOutput(RenderTable2(rows), "scenario", "content", "enc_base", "enc_adaptive",
				"enc_delta_pct", "disp_base", "disp_adaptive", "disp_delta_pct")
			for _, x := range rows {
				out.add(x.Scenario.Name, x.Scenario.Content.String(),
					num(x.BaselineEnc, 4), num(x.AdaptiveEnc, 4), num(x.EncDeltaPct, 2),
					num(x.BaselineDisp, 4), num(x.AdaptiveDisp, 4), num(x.DispDeltaPct, 2))
			}
			return out, nil
		}},
		{"figure2", true, func(r *Runner, o Options) (Output, error) {
			points := r.Figure2(o.Seeds)
			out := newOutput(RenderFigure2(points), "severity", "baseline_p95_ms", "adaptive_p95_ms", "reduction_pct")
			for _, p := range points {
				out.add(num(p.Severity, 2), ms(p.BaselineP95), ms(p.AdaptiveP95), num(p.ReductionPct, 2))
			}
			return out, nil
		}},
		{"figure3", true, func(r *Runner, o Options) (Output, error) {
			series := r.Figure3(o.Seeds)
			out := newOutput(RenderFigure3(series), "controller", "latency_ms", "cdf")
			for _, s := range series {
				for i := range s.DelaysMs {
					out.add(string(s.Kind), num(s.DelaysMs[i], 1), num(s.Fractions[i], 4))
				}
			}
			return out, nil
		}},
		{"table3", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Table3(o.Seeds)
			out := newOutput(RenderTable3(rows), "variant", "p95_ms", "mean_ssim", "p95_vs_full_pct")
			for _, x := range rows {
				out.add(x.Variant, ms(x.P95), num(x.MeanSSIM, 4), num(x.DeltaVsFull, 2))
			}
			return out, nil
		}},
		{"figure4", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure4(o.Seeds)
			out := newOutput(RenderFigure4(rows), "trace", "content", "controller", "p95_ms", "mean_ssim",
				"longest_freeze_ms", "mos")
			for _, x := range rows {
				out.add(x.TraceName, x.Content.String(), string(x.Kind),
					ms(x.P95), num(x.MeanSSIM, 4), ms(x.FreezeTime), num(x.MOS, 2))
			}
			return out, nil
		}},
		{"figure5", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure5(o.Seeds)
			out := newOutput(RenderFigure5(rows), "loss", "mode", "delivered_frac", "p95_ms", "mean_ssim",
				"pli", "rtx", "fec_recovered")
			for _, x := range rows {
				out.add(x.Condition.Name, string(x.Mode), num(x.DeliveredFrac, 4), ms(x.P95), num(x.MeanSSIM, 4),
					strconv.Itoa(x.PLI), strconv.Itoa(x.Retransmitted), strconv.Itoa(x.FECRecovered))
			}
			return out, nil
		}},
		{"figure6", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure6(o.Seeds)
			out := newOutput(RenderFigure6(rows), "after_bps", "ladder", "post_ssim", "post_p95_ms", "mean_qp", "switches")
			for _, x := range rows {
				out.add(num(x.After, 0), onOff(x.Resolution),
					num(x.PostSSIM, 4), ms(x.PostP95), num(x.MeanQP, 2), strconv.Itoa(x.Switches))
			}
			return out, nil
		}},
		{"figure7", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure7(o.Seeds)
			out := newOutput(RenderFigure7(rows), "pairing", "rate_a_bps", "rate_b_bps", "jain",
				"a_post_join_p95_ms", "a_ssim")
			for _, x := range rows {
				out.add(x.Pairing, num(x.RateA, 0), num(x.RateB, 0), num(x.Jain, 4), ms(x.P95A), num(x.SSIMA, 4))
			}
			return out, nil
		}},
		{"figure8", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure8(o.Seeds)
			out := newOutput(RenderFigure8(rows), "estimator", "post_p95_ms", "steady_rate_bps", "mean_ssim")
			for _, x := range rows {
				out.add(x.Estimator, ms(x.PostP95), num(x.SteadyRate, 0), num(x.MeanSSIM, 4))
			}
			return out, nil
		}},
		{"figure9", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure9(o.Seeds)
			out := newOutput(RenderFigure9(rows), "receiver", "layer_selection", "p95_ms", "delivered_frac",
				"mean_ssim", "mos")
			for _, x := range rows {
				out.add(x.Receiver, onOff(x.LayerSelection),
					ms(x.P95), num(x.DeliveredFrac, 4), num(x.MeanSSIM, 4), num(x.MOS, 2))
			}
			return out, nil
		}},
		{"figure10", true, func(r *Runner, o Options) (Output, error) {
			rows := r.Figure10(o.Seeds)
			out := newOutput(RenderFigure10(rows), "controller", "probing", "reclaim_s", "post_restore_ssim")
			for _, x := range rows {
				out.add(x.Controller, onOff(x.Probing), num(x.ReclaimTime.Seconds(), 2), num(x.PostRestoreSSIM, 4))
			}
			return out, nil
		}},
		{"frontier", false, func(r *Runner, o Options) (Output, error) {
			res, err := r.Frontier(o.Grid, o.Seeds)
			if err != nil {
				return Output{}, err
			}
			out := newOutput(RenderFrontier(res), "loss", "rtt_ms", "magnitude", "drop_s",
				"baseline_p95_ms", "adaptive_p95_ms", "win_pct")
			for _, c := range res.Cells {
				out.add(num(c.Point.Loss, 4), ms(c.Point.RTT), num(c.Point.Magnitude, 2),
					num(c.Point.DropDur.Seconds(), 1), ms(c.BaselineP95), ms(c.AdaptiveP95), num(c.WinPct, 2))
			}
			return out, nil
		}},
		{"scenarios", false, func(r *Runner, o Options) (Output, error) {
			scs := o.Scenarios
			if scs == nil {
				for _, name := range scenario.PresetNames() {
					scs = append(scs, scenario.MustPreset(name))
				}
			}
			rows, err := r.ScenarioTable(scs, headToHead(), o.Seeds, o.Duration)
			if err != nil {
				return Output{}, err
			}
			out := newOutput(RenderScenarioTable(rows), "scenario", "controller", "p95_ms", "mean_ssim", "delivered_frac")
			for _, x := range rows {
				out.add(x.Scenario, string(x.Kind), ms(x.P95), num(x.MeanSSIM, 4), num(x.DeliveredFrac, 4))
			}
			return out, nil
		}},
	}
}

// ExperimentIDs lists every registry id in presentation order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// Select resolves an experiment id: "all" is every paper entry in
// presentation order, any other id one registry entry.
func Select(id string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Registry() {
		if e.ID == id || (id == "all" && e.Paper) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (want %s | all)", id, strings.Join(ExperimentIDs(), " | "))
	}
	return out, nil
}

// FrontierGrid names a frontier sweep: "default" is the full generated
// grid; "small" is a 2×2 corner of it at one (loss, RTT), quick enough
// for smoke checks while exercising the whole pipeline.
func FrontierGrid(name string) (scenario.Grid, error) {
	switch name {
	case "default":
		return scenario.Grid{}, nil
	case "small":
		return scenario.Grid{
			DropAt:     3 * time.Second,
			Tail:       2 * time.Second,
			Magnitudes: []float64{0.5, 0.8},
			Durations:  []time.Duration{time.Second, 3 * time.Second},
			RTTs:       []time.Duration{50 * time.Millisecond},
			Losses:     []float64{0},
		}, nil
	}
	return scenario.Grid{}, fmt.Errorf("unknown -grid %q (want default | small)", name)
}

// num formats v with prec decimals.
func num(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// ms formats a duration in milliseconds with one decimal.
func ms(d time.Duration) string { return num(d.Seconds()*1000, 1) }

// onOff renders a switch.
func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}
