package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
)

// ---------------------------------------------------------------------------
// Figure 8 — bandwidth-estimator comparison under the adaptive controller.
//
// The paper's mechanism consumes whatever estimate the congestion
// controller produces; this experiment swaps the estimator (GCC's delay
// gradients, BBR-style delivery rate, loss-only, and the clairvoyant
// oracle) to show how much of the end-to-end result depends on estimator
// choice versus the encoder-side actions.

// Figure8Row is one estimator's outcome on the canonical drop.
type Figure8Row struct {
	Estimator string
	// PostP95 is post-drop P95 latency; SteadyRate the achieved bitrate
	// in the last 10 s; MeanSSIM the session displayed quality.
	PostP95    time.Duration
	SteadyRate float64
	MeanSSIM   float64
}

// Figure8 runs the 2.5->0.8 Mbps drop with the adaptive controller under
// each estimator. Rows are estimators.
func (r *Runner) Figure8(seeds []int64) []Figure8Row {
	sc := canonicalDrop()
	type estimator struct {
		name string
		mk   func(capacity cc.CapacityFunc) cc.Estimator
	}
	estimators := []estimator{
		{"gcc", nil}, // session default
		{"bbr", func(cc.CapacityFunc) cc.Estimator { return cc.NewBBR(1e6) }},
		{"loss-based", func(cc.CapacityFunc) cc.Estimator { return cc.NewLossBased(1e6) }},
		{"oracle", func(capacity cc.CapacityFunc) cc.Estimator { return cc.NewOracle(capacity, 0.95) }},
	}
	type sample struct{ p95, rate, ssim float64 }
	samples := seedGrid(r, estimators, seeds, func(e estimator) string {
		return "figure8 " + e.name
	}, func(e estimator, seed int64) sample {
		cfg := buildConfig(sc.path(), sc.Content, KindAdaptive, seed, core.AdaptiveConfig{})
		if e.mk != nil {
			cfg.NewEstimator = e.mk
		}
		res := session.Run(cfg)
		late := metrics.Summarize(res.Records, 20*time.Second, 30*time.Second, res.FrameInterval)
		return sample{
			p95:  postDrop(sc, res).P95NetDelay.Seconds(),
			rate: late.Bitrate,
			ssim: res.Report.MeanSSIM,
		}
	})

	var rows []Figure8Row
	for i, e := range estimators {
		var p95, rate, ssim float64
		for _, s := range samples[i] {
			p95 += s.p95
			rate += s.rate
			ssim += s.ssim
		}
		n := float64(len(samples[i]))
		rows = append(rows, Figure8Row{
			Estimator:  e.name,
			PostP95:    time.Duration(p95 / n * float64(time.Second)),
			SteadyRate: rate / n,
			MeanSSIM:   ssim / n,
		})
	}
	return rows
}

// RenderFigure8 renders the estimator comparison.
func RenderFigure8(rows []Figure8Row) string {
	tb := metrics.NewTable("estimator", "post-drop P95 (ms)", "steady rate (Mbps)", "mean SSIM")
	for _, r := range rows {
		tb.AddRow(r.Estimator, metrics.Ms(r.PostP95),
			fmt.Sprintf("%.2f", r.SteadyRate/1e6), fmt.Sprintf("%.4f", r.MeanSSIM))
	}
	return "Figure 8 (extension): estimator comparison, adaptive controller on 2.5->0.8 Mbps\n" + tb.String()
}
