package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 10 — capacity-restoration recovery.
//
// The paper's scheme handles the drop; this extension measures the other
// edge: when capacity comes back, how long until the user gets their
// quality back? GCC's multiplicative increase reclaims ~8%/s, so a
// 0.8 -> 2.5 Mbps restoration takes >10 s unless the sender probes.

// Figure10Row is one (controller, probing) cell.
type Figure10Row struct {
	Controller string
	Probing    bool
	// ReclaimTime is how long after restoration the encode rate regains
	// 1.8 Mbps (capped at the observation window when never reclaimed).
	ReclaimTime time.Duration
	// PostRestoreSSIM is mean displayed SSIM in the 15 s after restore.
	PostRestoreSSIM float64
}

// Figure10 runs the drop-and-recover trace under native/adaptive with and
// without probing. Rows are (controller, probing).
func (r *Runner) Figure10(seeds []int64) []Figure10Row {
	dropAt, restoreAt := 10*time.Second, 20*time.Second
	dur := 45 * time.Second
	rows := cross(headToHead(), []bool{false, true})
	type sample struct{ reclaim, ssim float64 }
	samples := seedGrid(r, rows, seeds, func(c pair[ControllerKind, bool]) string {
		return fmt.Sprintf("figure10 %s probing=%t", c.a, c.b)
	}, func(c pair[ControllerKind, bool], seed int64) sample {
		path := scenario.Path{Trace: trace.StepDropRecover(2.5e6, 0.8e6, dropAt, restoreAt), Duration: dur}
		cfg := buildConfig(path, video.TalkingHead, c.a, seed, core.AdaptiveConfig{})
		cfg.Probing = c.b
		res := session.Run(cfg)
		const reclaimedAt units.BitsPerSec = 1.8e6
		rt := dur - restoreAt // cap: never reclaimed
		for _, p := range res.Timeline {
			if p.At >= restoreAt && p.EncoderTarget >= reclaimedAt {
				rt = p.At - restoreAt
				break
			}
		}
		post := metrics.Summarize(res.Records, restoreAt, restoreAt+15*time.Second, res.FrameInterval)
		return sample{reclaim: rt.Seconds(), ssim: post.MeanSSIM}
	})

	var out []Figure10Row
	for i, c := range rows {
		var reclaim, ssim float64
		for _, s := range samples[i] {
			reclaim += s.reclaim
			ssim += s.ssim
		}
		n := float64(len(samples[i]))
		out = append(out, Figure10Row{
			Controller:      string(c.a),
			Probing:         c.b,
			ReclaimTime:     time.Duration(reclaim / n * float64(time.Second)),
			PostRestoreSSIM: ssim / n,
		})
	}
	return out
}

// RenderFigure10 renders the recovery comparison.
func RenderFigure10(rows []Figure10Row) string {
	tb := metrics.NewTable("controller", "probing", "reclaim to 1.8 Mbps", "post-restore SSIM")
	for _, r := range rows {
		tb.AddRow(r.Controller, onOff(r.Probing),
			fmt.Sprintf("%.1f s", r.ReclaimTime.Seconds()),
			fmt.Sprintf("%.4f", r.PostRestoreSSIM))
	}
	return "Figure 10 (extension): reclaiming restored capacity (0.8 -> 2.5 Mbps at t=20s)\n" + tb.String()
}
