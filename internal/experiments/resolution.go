package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 6 — resolution-ladder extension.
//
// The poster's scheme adjusts QP-domain parameters; resolution is the
// next codec parameter an adaptive encoder can move. This experiment
// measures what adding a resolution ladder to the adaptive controller
// buys on severe drops: at starvation bitrates, encoding fewer pixels at
// a sane QP beats encoding all pixels at a crushed QP.

// Figure6Row is one (post-drop bitrate, variant) cell.
type Figure6Row struct {
	// After is the post-drop capacity in bits/s.
	After float64
	// Resolution reports whether the ladder was enabled.
	Resolution bool
	// PostSSIM is the mean displayed SSIM in the 10 s after the drop.
	PostSSIM float64
	// PostP95 is the post-drop P95 latency.
	PostP95 time.Duration
	// Switches counts ladder moves.
	Switches int
	// MeanQP is the average quantizer over delivered post-drop frames.
	MeanQP float64
}

// Figure6 sweeps post-drop capacity at a fixed 2.5 Mbps start, comparing
// the adaptive controller with and without the resolution ladder. Rows
// are (post-drop rate, ladder).
func (r *Runner) Figure6(seeds []int64) []Figure6Row {
	rows := cross([]float64{1.0e6, 0.6e6, 0.4e6, 0.25e6}, []bool{false, true})
	type sample struct {
		ssim, p95, qp float64
		switches      int
	}
	samples := seedGrid(r, rows, seeds, func(c pair[float64, bool]) string {
		return fmt.Sprintf("figure6 after=%.2fMbps ladder=%t", c.a/1e6, c.b)
	}, func(c pair[float64, bool], seed int64) sample {
		sc := DropScenario{Before: 2.5e6, After: units.BitsPerSec(c.a), DropAt: 10 * time.Second, Content: video.Gaming}
		cfg := buildConfig(sc.path(), sc.Content, KindAdaptive, seed, core.AdaptiveConfig{EnableResolution: c.b})
		res := session.Run(cfg)
		post := metrics.Summarize(res.Records, sc.DropAt, sc.DropAt+10*time.Second, res.FrameInterval)
		out := sample{
			ssim:     post.MeanSSIM,
			p95:      post.P95NetDelay.Seconds(),
			switches: cfg.Controller.(*core.Adaptive).ResolutionSwitches(),
		}
		var qpSum float64
		var qpN int
		for _, rec := range res.Records {
			if rec.CaptureTS >= sc.DropAt && rec.Outcome == metrics.Delivered && rec.QP > 0 {
				qpSum += float64(rec.QP)
				qpN++
			}
		}
		if qpN > 0 {
			out.qp = qpSum / float64(qpN)
		}
		return out
	})

	var out []Figure6Row
	for i, c := range rows {
		var ssim, p95, qp float64
		var switches int
		for _, s := range samples[i] {
			ssim += s.ssim
			p95 += s.p95
			qp += s.qp
			switches += s.switches
		}
		n := len(samples[i])
		out = append(out, Figure6Row{
			After:      c.a,
			Resolution: c.b,
			PostSSIM:   ssim / float64(n),
			PostP95:    time.Duration(p95 / float64(n) * float64(time.Second)),
			Switches:   switches / n,
			MeanQP:     qp / float64(n),
		})
	}
	return out
}

// RenderFigure6 renders the resolution-extension comparison.
func RenderFigure6(rows []Figure6Row) string {
	tb := metrics.NewTable("post-drop rate", "ladder", "post SSIM", "post P95 (ms)", "mean QP", "switches")
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%.2f Mbps", r.After/1e6), onOff(r.Resolution),
			fmt.Sprintf("%.4f", r.PostSSIM), metrics.Ms(r.PostP95),
			fmt.Sprintf("%.1f", r.MeanQP), fmt.Sprintf("%d", r.Switches))
	}
	return "Figure 6 (extension): resolution ladder on severe drops (2.5 Mbps start, gaming)\n" + tb.String()
}
