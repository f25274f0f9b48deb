package experiments

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// ---------------------------------------------------------------------------
// Figure 5 — loss robustness: PLI-only vs NACK retransmission.
//
// The poster's system operates over real networks where bandwidth drops
// coincide with loss; this extension experiment verifies the transport
// substrate degrades sanely and that NACK repair keeps the adaptive
// controller's quality win intact under loss.

// LossCondition is one loss configuration.
type LossCondition struct {
	// Name labels the row.
	Name string
	// Random is the Bernoulli loss probability.
	Random float64
	// BurstLen and BurstRate configure Gilbert-Elliott loss (0 = none).
	BurstLen  float64
	BurstRate float64
}

// Figure5Conditions is the swept loss grid.
func Figure5Conditions() []LossCondition {
	return []LossCondition{
		{Name: "0%", Random: 0},
		{Name: "0.5%", Random: 0.005},
		{Name: "1%", Random: 0.01},
		{Name: "2%", Random: 0.02},
		{Name: "5%", Random: 0.05},
		{Name: "burst-2%", BurstLen: 8, BurstRate: 0.02},
		{Name: "burst-5%", BurstLen: 8, BurstRate: 0.05},
	}
}

// RecoveryMode names a loss-recovery configuration.
type RecoveryMode string

// Recovery modes compared in Figure 5.
const (
	ModePLIOnly RecoveryMode = "pli-only"
	ModeNACK    RecoveryMode = "nack"
	ModeFEC     RecoveryMode = "fec"
	ModeFECNACK RecoveryMode = "fec+nack"
)

// RecoveryModes lists the compared configurations.
func RecoveryModes() []RecoveryMode {
	return []RecoveryMode{ModePLIOnly, ModeNACK, ModeFEC, ModeFECNACK}
}

// Figure5Row is one (condition, recovery mode) cell.
type Figure5Row struct {
	Condition LossCondition
	Mode      RecoveryMode
	// DeliveredFrac is the fraction of frame slots actually displayed.
	DeliveredFrac float64
	P95           time.Duration
	MeanSSIM      float64
	PLI           int
	Retransmitted int
	FECRecovered  int
}

// Figure5 runs a 30 s session at constant 2 Mbps per condition under each
// recovery mode, averaging over seeds. FEC uses one repair per 4 media
// packets (25% overhead). Rows are (condition, mode).
func (r *Runner) Figure5(seeds []int64) []Figure5Row {
	rows := cross(Figure5Conditions(), RecoveryModes())
	type sample struct {
		frac, p95, ssim float64
		pli, rtx, fec   int
	}
	samples := seedGrid(r, rows, seeds, func(c pair[LossCondition, RecoveryMode]) string {
		return fmt.Sprintf("figure5 %s/%s", c.a.Name, c.b)
	}, func(c pair[LossCondition, RecoveryMode], seed int64) sample {
		cond, mode := c.a, c.b
		p := scenario.Path{Trace: trace.Constant(2e6), Duration: 30 * time.Second, Loss: cond.Random}
		cfg := buildConfig(p, video.TalkingHead, KindAdaptive, seed, core.AdaptiveConfig{})
		cfg.NACK = mode == ModeNACK || mode == ModeFECNACK
		if mode == ModeFEC || mode == ModeFECNACK {
			cfg.FECGroupSize = 4
		}
		if cond.BurstRate > 0 {
			cfg.BurstLoss = netem.NewGilbertElliott(cond.BurstLen, cond.BurstRate)
		}
		res := session.Run(cfg)
		return sample{
			frac: float64(res.Report.DeliveredFrames) / float64(res.Report.Frames),
			p95:  res.Report.P95NetDelay.Seconds(),
			ssim: res.Report.MeanSSIM,
			pli:  res.PLISent,
			rtx:  res.Retransmitted,
			fec:  res.FECRecovered,
		}
	})

	var out []Figure5Row
	for i, c := range rows {
		var frac, p95, ssim float64
		var pli, rtx, fecRec int
		for _, s := range samples[i] {
			frac += s.frac
			p95 += s.p95
			ssim += s.ssim
			pli += s.pli
			rtx += s.rtx
			fecRec += s.fec
		}
		n := len(samples[i])
		out = append(out, Figure5Row{
			Condition:     c.a,
			Mode:          c.b,
			DeliveredFrac: frac / float64(n),
			P95:           time.Duration(p95 / float64(n) * float64(time.Second)),
			MeanSSIM:      ssim / float64(n),
			PLI:           pli / n,
			Retransmitted: rtx / n,
			FECRecovered:  fecRec / n,
		})
	}
	return out
}

// RenderFigure5 renders the loss-robustness table.
func RenderFigure5(rows []Figure5Row) string {
	tb := metrics.NewTable("loss", "recovery", "delivered", "P95 (ms)", "mean SSIM", "PLI", "rtx", "fec-rec")
	for _, r := range rows {
		tb.AddRow(r.Condition.Name, string(r.Mode),
			fmt.Sprintf("%.1f%%", r.DeliveredFrac*100),
			metrics.Ms(r.P95), fmt.Sprintf("%.4f", r.MeanSSIM),
			fmt.Sprintf("%d", r.PLI), fmt.Sprintf("%d", r.Retransmitted),
			fmt.Sprintf("%d", r.FECRecovered))
	}
	return "Figure 5 (extension): loss robustness, adaptive controller @ 2 Mbps\n" + tb.String()
}
