// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment inventory). Each benchmark runs
// the corresponding experiment and reports its headline quantities as
// custom metrics, so `go test -bench=.` both exercises the full pipeline
// and reproduces the paper's numbers:
//
//	BenchmarkTable1LatencyReduction    reduction-min/max-% (paper: 28.66 .. 78.87)
//	BenchmarkTable2Quality             ssim-delta-min/max-% (paper: +0.8 .. +3)
//	...
//
// The pretty-printed rows behind each metric come from cmd/benchdrop.
package rtcadapt

import (
	"testing"
	"time"

	"rtcadapt/internal/experiments"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/video"
)

// benchSeeds keeps benchmark iterations affordable; cmd/benchdrop uses
// five seeds by default.
var benchSeeds = []int64{1, 2}

// suite runs the experiments on the default GOMAXPROCS pool.
var suite = &experiments.Runner{}

// BenchmarkFigure1DropTimeline regenerates the motivating latency
// timeline (Figure 1) and reports each controller's post-drop peak.
func BenchmarkFigure1DropTimeline(b *testing.B) {
	var basePeak, adptPeak float64
	for i := 0; i < b.N; i++ {
		series := suite.Figure1(1)
		peak := func(s experiments.Figure1Series) float64 {
			m := 0.0
			for j, x := range s.X {
				if x >= 10 && x < 15 && s.Y[j] > m {
					m = s.Y[j]
				}
			}
			return m
		}
		basePeak, adptPeak = peak(series[0]), peak(series[1])
	}
	b.ReportMetric(basePeak, "baseline-peak-ms")
	b.ReportMetric(adptPeak, "adaptive-peak-ms")
}

// BenchmarkTable1LatencyReduction regenerates the headline latency table
// (Table 1) and reports the reduction range.
func BenchmarkTable1LatencyReduction(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		rows := suite.Table1(benchSeeds)
		lo, hi = 1e9, -1e9
		for _, r := range rows {
			if r.ReductionPct < lo {
				lo = r.ReductionPct
			}
			if r.ReductionPct > hi {
				hi = r.ReductionPct
			}
		}
	}
	b.ReportMetric(lo, "reduction-min-%")
	b.ReportMetric(hi, "reduction-max-%")
}

// BenchmarkTable2Quality regenerates the quality table (Table 2) and
// reports the displayed-SSIM delta range.
func BenchmarkTable2Quality(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		rows := suite.Table2(benchSeeds)
		lo, hi = 1e9, -1e9
		for _, r := range rows {
			if r.DispDeltaPct < lo {
				lo = r.DispDeltaPct
			}
			if r.DispDeltaPct > hi {
				hi = r.DispDeltaPct
			}
		}
	}
	b.ReportMetric(lo, "ssim-delta-min-%")
	b.ReportMetric(hi, "ssim-delta-max-%")
}

// BenchmarkFigure2SeveritySweep regenerates the severity sweep (Figure 2)
// and reports the reduction at the mildest and severest drops.
func BenchmarkFigure2SeveritySweep(b *testing.B) {
	var mild, severe float64
	for i := 0; i < b.N; i++ {
		points := suite.Figure2(benchSeeds)
		mild = points[0].ReductionPct
		severe = points[len(points)-1].ReductionPct
	}
	b.ReportMetric(mild, "mild-20%-reduction-%")
	b.ReportMetric(severe, "severe-90%-reduction-%")
}

// BenchmarkFigure3LatencyCDF regenerates the post-drop latency CDF
// (Figure 3) across all controllers and reports their P95s.
func BenchmarkFigure3LatencyCDF(b *testing.B) {
	p95 := map[experiments.ControllerKind]float64{}
	for i := 0; i < b.N; i++ {
		for _, s := range suite.Figure3(benchSeeds) {
			p95[s.Kind] = s.P95
		}
	}
	b.ReportMetric(p95[experiments.KindNative], "native-p95-ms")
	b.ReportMetric(p95[experiments.KindResetOnly], "resetonly-p95-ms")
	b.ReportMetric(p95[experiments.KindAdaptive], "adaptive-p95-ms")
	b.ReportMetric(p95[experiments.KindAdaptiveOracle], "oracle-p95-ms")
}

// BenchmarkTable3Ablation regenerates the mechanism ablation (Table 3)
// and reports the spread between the full scheme and the retarget-only
// base.
func BenchmarkTable3Ablation(b *testing.B) {
	var full, base float64
	for i := 0; i < b.N; i++ {
		rows := suite.Table3(benchSeeds)
		for _, r := range rows {
			switch r.Variant {
			case "full":
				full = r.P95.Seconds() * 1000
			case "base (retarget only)":
				base = r.P95.Seconds() * 1000
			}
		}
	}
	b.ReportMetric(full, "full-p95-ms")
	b.ReportMetric(base, "retarget-only-p95-ms")
}

// BenchmarkFigure4Traces regenerates the trace-driven comparison
// (Figure 4) and reports the mean P95 per controller across cells.
func BenchmarkFigure4Traces(b *testing.B) {
	means := map[experiments.ControllerKind]float64{}
	for i := 0; i < b.N; i++ {
		rows := suite.Figure4([]int64{1})
		sums := map[experiments.ControllerKind]float64{}
		counts := map[experiments.ControllerKind]int{}
		for _, r := range rows {
			sums[r.Kind] += r.P95.Seconds() * 1000
			counts[r.Kind]++
		}
		for k, s := range sums {
			means[k] = s / float64(counts[k])
		}
	}
	b.ReportMetric(means[experiments.KindNative], "native-mean-p95-ms")
	b.ReportMetric(means[experiments.KindAdaptive], "adaptive-mean-p95-ms")
}

// BenchmarkFigure5LossRobustness regenerates the loss-recovery extension
// experiment and reports delivery with and without NACK at 2% loss.
func BenchmarkFigure5LossRobustness(b *testing.B) {
	var pliOnly, nack float64
	for i := 0; i < b.N; i++ {
		for _, r := range suite.Figure5([]int64{1}) {
			if r.Condition.Name != "2%" {
				continue
			}
			switch r.Mode {
			case experiments.ModeNACK:
				nack = r.DeliveredFrac * 100
			case experiments.ModePLIOnly:
				pliOnly = r.DeliveredFrac * 100
			}
		}
	}
	b.ReportMetric(pliOnly, "pli-only-delivered-%")
	b.ReportMetric(nack, "nack-delivered-%")
}

// BenchmarkFigure6Resolution regenerates the resolution-ladder extension
// and reports the starvation-bitrate comparison.
func BenchmarkFigure6Resolution(b *testing.B) {
	var offP95, onP95 float64
	for i := 0; i < b.N; i++ {
		for _, r := range suite.Figure6([]int64{1}) {
			if r.After != 0.25e6 {
				continue
			}
			if r.Resolution {
				onP95 = r.PostP95.Seconds() * 1000
			} else {
				offP95 = r.PostP95.Seconds() * 1000
			}
		}
	}
	b.ReportMetric(offP95, "qp-only-p95-ms")
	b.ReportMetric(onP95, "ladder-p95-ms")
}

// BenchmarkSessionThroughput measures raw simulator speed: virtual
// seconds simulated per wall second for a full end-to-end session.
func BenchmarkSessionThroughput(b *testing.B) {
	const dur = 30 * time.Second
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		session.Run(session.Config{
			Duration:   dur,
			Seed:       int64(i),
			Content:    video.Gaming,
			Trace:      StepDrop(2.5e6, 0.8e6, 10*time.Second),
			Controller: NewAdaptive(AdaptiveConfig{}),
		})
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(dur.Seconds()*float64(b.N)/wall, "virtual-s/s")
	}
}

// BenchmarkPostDropSummary measures the metric aggregation path on a
// realistic ledger.
func BenchmarkPostDropSummary(b *testing.B) {
	res := session.Run(session.Config{
		Duration:   30 * time.Second,
		Seed:       1,
		Trace:      StepDrop(2.5e6, 0.8e6, 10*time.Second),
		Controller: NewNativeRC(),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Summarize(res.Records, 10*time.Second, 15*time.Second, res.FrameInterval)
	}
}

// BenchmarkFigure7Fairness regenerates the multi-flow fairness extension
// and reports the adaptive+adaptive Jain index.
func BenchmarkFigure7Fairness(b *testing.B) {
	var jain float64
	for i := 0; i < b.N; i++ {
		for _, r := range suite.Figure7([]int64{1}) {
			if r.Pairing == "adaptive+adaptive" {
				jain = r.Jain
			}
		}
	}
	b.ReportMetric(jain, "jain-index")
}

// BenchmarkFigure8Estimators regenerates the estimator comparison and
// reports post-drop P95 per estimator.
func BenchmarkFigure8Estimators(b *testing.B) {
	p95 := map[string]float64{}
	for i := 0; i < b.N; i++ {
		for _, r := range suite.Figure8([]int64{1}) {
			p95[r.Estimator] = r.PostP95.Seconds() * 1000
		}
	}
	b.ReportMetric(p95["gcc"], "gcc-p95-ms")
	b.ReportMetric(p95["bbr"], "bbr-p95-ms")
	b.ReportMetric(p95["loss-based"], "lossbased-p95-ms")
	b.ReportMetric(p95["oracle"], "oracle-p95-ms")
}

// BenchmarkFigure9SFU regenerates the SFU extension and reports the weak
// receiver's P95 with and without temporal-layer selection.
func BenchmarkFigure9SFU(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		for _, r := range suite.Figure9([]int64{1}) {
			if r.Receiver != "weak-1.5Mbps" {
				continue
			}
			if r.LayerSelection {
				on = r.P95.Seconds() * 1000
			} else {
				off = r.P95.Seconds() * 1000
			}
		}
	}
	b.ReportMetric(off, "weak-unfiltered-p95-ms")
	b.ReportMetric(on, "weak-filtered-p95-ms")
}

// BenchmarkFigure10Recovery regenerates the capacity-restoration extension
// and reports the adaptive controller's reclaim time with and without
// probing.
func BenchmarkFigure10Recovery(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		for _, r := range suite.Figure10([]int64{1}) {
			if r.Controller != "adaptive" {
				continue
			}
			if r.Probing {
				on = r.ReclaimTime.Seconds()
			} else {
				off = r.ReclaimTime.Seconds()
			}
		}
	}
	b.ReportMetric(off, "reclaim-noprobe-s")
	b.ReportMetric(on, "reclaim-probe-s")
}
