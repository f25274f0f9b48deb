package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/session"
	"rtcadapt/internal/units"
	"rtcadapt/internal/video"
)

// recordSessions bounds how many traced sessions keep their full layer
// inputs for the replays.
const recordSessions = 6

// layerAcc accumulates the traced sessions: counts observed at
// the public seams and in each session's result, and host time spent in
// the wrapped calls.
type layerAcc struct {
	sessions                                 int
	events, depthSum                         int64
	depthMax                                 int
	offered, delivered, queueDrops, lossDrop int64
	pacerDropped, nacks, rtx, fecRepairs     int64
	fecRecovered                             int64
	ccCalls, ccResults                       int64
	frames, skipped, encodedBytes            int64
	coreFeedback, coreFeedbackNs             int64
	coreFrameNs, videoFrames, videoNs        int64
	buildNs, newNs, resultNs, summarizeNs    int64
	summarizeMismatch                        int
	records                                  []*sessionRecord
}

// sessionRecord holds what one traced session fed its layers, for the
// replays: the config, every frame with its directives and
// encoder output, and every estimator call in order.
type sessionRecord struct {
	cfg      session.Config
	frames   []video.Frame
	dirs     []codec.Directives
	encoded  []codec.EncodedFrame
	ccOps    []ccOp
	events   int64
	depthSum int64
}

// ccOp is one call into the estimator: a feedback batch, or a Snapshot
// read and the value it returned.
type ccOp struct {
	now     time.Duration
	results []fb.PacketResult // nil for a Snapshot call
	snap    cc.Snapshot
}

// timerCost is the host time of an empty timed region, subtracted from
// every wrapped call's measured time.
var timerCost = calibrateTimer()

func calibrateTimer() int64 {
	var xs []int64
	for i := 0; i < 2001; i++ {
		t0 := time.Now()
		xs = append(xs, time.Since(t0).Nanoseconds())
	}
	return int64(quantile(xs, 0.5))
}

func elapsed(t0 time.Time) int64 { return time.Since(t0).Nanoseconds() - timerCost }

// tracedController wraps the session's core.Controller.
type tracedController struct {
	inner core.Controller
	acc   *layerAcc
	rec   *sessionRecord
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) OnFeedback(now time.Duration, snap cc.Snapshot) {
	t0 := time.Now()
	c.inner.OnFeedback(now, snap)
	c.acc.coreFeedbackNs += elapsed(t0)
	c.acc.coreFeedback++
}

func (c *tracedController) BeforeEncode(ctx core.FrameContext) codec.Directives {
	t0 := time.Now()
	d := c.inner.BeforeEncode(ctx)
	c.acc.coreFrameNs += elapsed(t0)
	if c.rec != nil {
		c.rec.frames = append(c.rec.frames, ctx.Frame)
		c.rec.dirs = append(c.rec.dirs, d)
	}
	return d
}

func (c *tracedController) OnEncoded(now time.Duration, f codec.EncodedFrame) {
	t0 := time.Now()
	c.inner.OnEncoded(now, f)
	c.acc.coreFrameNs += elapsed(t0)
	c.acc.frames++
	c.acc.encodedBytes += int64(f.Bytes())
	if f.Type == codec.TypeSkip {
		c.acc.skipped++
	}
	if c.rec != nil {
		c.rec.encoded = append(c.rec.encoded, f)
	}
}

// tracedEstimator wraps the session's cc.Estimator.
type tracedEstimator struct {
	inner cc.Estimator
	acc   *layerAcc
	rec   *sessionRecord
}

func (e *tracedEstimator) Name() string { return e.inner.Name() }

func (e *tracedEstimator) OnPacketResults(now time.Duration, results []fb.PacketResult) {
	if e.rec != nil {
		e.rec.ccOps = append(e.rec.ccOps, ccOp{now: now, results: append([]fb.PacketResult{}, results...)})
	}
	e.inner.OnPacketResults(now, results)
	e.acc.ccCalls++
	e.acc.ccResults += int64(len(results))
}

func (e *tracedEstimator) Snapshot(now time.Duration) cc.Snapshot {
	s := e.inner.Snapshot(now)
	if e.rec != nil {
		e.rec.ccOps = append(e.rec.ccOps, ccOp{now: now, snap: s})
	}
	return s
}

// tracedSource wraps the session's video.FrameSource.
type tracedSource struct {
	inner video.FrameSource
	acc   *layerAcc
}

func (s *tracedSource) Next() video.Frame {
	t0 := time.Now()
	f := s.inner.Next()
	s.acc.videoNs += elapsed(t0)
	s.acc.videoFrames++
	return f
}

func (s *tracedSource) FPS() int                     { return s.inner.FPS() }
func (s *tracedSource) FrameInterval() time.Duration { return s.inner.FrameInterval() }

// Session defaults the wrappers must reproduce: a session fills these in
// when the config leaves them zero (see session.New).
func sessionFPS(cfg session.Config) int {
	if cfg.FPS == 0 {
		return 30
	}
	return cfg.FPS
}

func sessionInitialRate(cfg session.Config) units.BitsPerSec {
	if cfg.InitialRate == 0 {
		return 1e6
	}
	return cfg.InitialRate
}

func sessionDurationOf(cfg session.Config) time.Duration {
	if cfg.Duration == 0 {
		return 30 * time.Second
	}
	return cfg.Duration
}

// wrap installs the three seam wrappers on cfg. Each wrapper builds
// exactly what the session would have built by default, so the session's
// output is unchanged.
func wrap(cfg *session.Config, acc *layerAcc, rec *sessionRecord) {
	cfg.Controller = &tracedController{inner: cfg.Controller, acc: acc, rec: rec}
	if cfg.VideoSource == nil {
		cfg.VideoSource = video.NewSource(video.SourceConfig{Class: cfg.Content, FPS: sessionFPS(*cfg), Seed: cfg.Seed})
	}
	cfg.VideoSource = &tracedSource{inner: cfg.VideoSource, acc: acc}
	inner, rate := cfg.NewEstimator, sessionInitialRate(*cfg)
	cfg.NewEstimator = func(capacity cc.CapacityFunc) cc.Estimator {
		var est cc.Estimator
		if inner != nil {
			est = inner(capacity)
		} else {
			est = cc.NewGCC(cc.GCCConfig{InitialRate: rate})
		}
		return &tracedEstimator{inner: est, acc: acc, rec: rec}
	}
}

// runTraced runs session j with the seam wrappers on and drives the
// scheduler with Peek/Step, sampling the queue depth after every event.
func runTraced(w *worker, p *plan, j int) (session.Summary, error) {
	acc := w.acc
	t0 := time.Now()
	cfg := p.build(j)
	acc.buildNs += elapsed(t0)
	if err := cfg.Validate(); err != nil {
		return session.Summary{}, err
	}
	var rec *sessionRecord
	if len(acc.records) < recordSessions {
		rec = &sessionRecord{cfg: cfg}
		acc.records = append(acc.records, rec)
	}
	wrap(&cfg, acc, rec)

	w.sched.Reset()
	t1 := time.Now()
	s := session.New(w.sched, cfg)
	acc.newNs += elapsed(t1)
	end := cfg.StartAt + sessionDurationOf(cfg) + 2*time.Second
	var events, depthSum int64
	for {
		at, ok := w.sched.Peek()
		if !ok || at > end {
			break
		}
		w.sched.Step()
		events++
		d := w.sched.Len()
		depthSum += int64(d)
		if d > acc.depthMax {
			acc.depthMax = d
		}
	}
	acc.events += events
	acc.depthSum += depthSum
	if rec != nil {
		rec.events, rec.depthSum = events, depthSum
	}

	t2 := time.Now()
	res := s.Result()
	acc.resultNs += elapsed(t2)
	t3 := time.Now()
	again := metrics.SummarizeAll(res.Records, res.FrameInterval)
	acc.summarizeNs += elapsed(t3)
	if again != res.Report {
		acc.summarizeMismatch++
	}

	sum := session.Summarize(j, res)
	ls := sum.LinkStats
	acc.sessions++
	acc.offered += int64(ls.Accepted + ls.DroppedQueue)
	acc.delivered += int64(ls.Delivered)
	acc.queueDrops += int64(ls.DroppedQueue)
	acc.lossDrop += int64(ls.DroppedLoss)
	acc.pacerDropped += int64(sum.PacerDropped)
	acc.nacks += int64(sum.NacksSent)
	acc.rtx += int64(sum.Retransmitted)
	acc.fecRepairs += int64(sum.FECRepairs)
	acc.fecRecovered += int64(sum.FECRecovered)
	return sum, checkSummary(sum)
}

// tracedSessions is the per-layer run of a session batch. It runs the
// batch untraced for half the budget (allocation, GC and host-time
// baselines, and the reference digest), then traced under a CPU profile
// for the other half, then replays the recorded layer inputs. The traced
// digest must equal the untraced one. suite, when non-nil, carries the
// paper suite's runner measurements.
func tracedSessions(o options, p *plan, suite *suiteRuns) (*report, error) {
	budget := o.budget / 2
	if suite != nil {
		budget = o.budget / 3
	}
	rep := &report{correct: true, metrics: metricSet{}}
	base := runPhase(p, budget, runUntraced, nil)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	acc := &layerAcc{}
	traced := runPhase(p, budget, func(w *worker, p *plan, j int) (sum session.Summary, err error) {
		pprof.Do(context.Background(), pprof.Labels("perfbench", "traced"), func(context.Context) {
			sum, err = runTraced(w, p, j)
		})
		return sum, err
	}, acc)
	pprof.StopCPUProfile()

	rep.attempted = base.sessions + traced.sessions
	rep.failed = base.failed + traced.failed
	rep.digest = p.name + " " + base.digest
	for _, pr := range append(base.problems, traced.problems...) {
		rep.fail("%s", pr)
	}
	if traced.digest != base.digest {
		rep.fail("traced digest %s differs from untraced digest %s", traced.digest, base.digest)
	}

	if acc.summarizeMismatch > 0 {
		rep.fail("metrics.SummarizeAll disagreed with the session report %d times", acc.summarizeMismatch)
	}
	m := rep.metrics
	n := float64(acc.sessions)
	perSession := func(v int64) float64 { return float64(v) / n }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["simtime.events"] = perSession(acc.events)
	m["simtime.depth_mean"] = frac(acc.depthSum, acc.events)
	m["simtime.depth_max"] = float64(acc.depthMax)
	m["netem.packets"] = perSession(acc.offered)
	m["netem.delivered_frac"] = frac(acc.delivered, acc.offered)
	m["netem.queue_drops"] = perSession(acc.queueDrops)
	m["netem.loss_drops"] = perSession(acc.lossDrop)
	m["pacer.dropped"] = perSession(acc.pacerDropped)
	m["rtp.nacks"] = perSession(acc.nacks)
	m["rtp.rtx_frac"] = frac(acc.rtx, acc.offered)
	m["fec.repairs"] = perSession(acc.fecRepairs)
	m["fec.recovered"] = perSession(acc.fecRecovered)
	m["fb.reports"] = perSession(acc.ccCalls)
	m["fb.results_per_report"] = frac(acc.ccResults, acc.ccCalls)
	m["cc.calls"] = perSession(acc.ccCalls)
	m["codec.frames"] = perSession(acc.frames)
	m["codec.bytes_per_frame"] = frac(acc.encodedBytes, acc.frames)
	m["core.feedback_calls"] = perSession(acc.coreFeedback)
	m["core.ns_per_feedback"] = frac(acc.coreFeedbackNs, acc.coreFeedback)
	m["core.ns_per_frame"] = frac(acc.coreFrameNs, acc.frames)
	m["core.skipped_frac"] = frac(acc.skipped, acc.frames)
	m["video.ns_per_frame"] = frac(acc.videoNs, acc.videoFrames)
	m["session.build_us"] = perSession(acc.buildNs) / 1e3
	m["session.new_us"] = perSession(acc.newNs) / 1e3
	m["session.result_us"] = perSession(acc.resultNs) / 1e3
	m["metrics.summarize_us"] = perSession(acc.summarizeNs) / 1e3

	bn := float64(base.sessions)
	m["session.host_ms_p99"] = quantile(base.wallNs, 0.99) / 1e6
	m["session.alloc_kb"] = float64(base.res.allocBytes) / 1024 / bn
	m["session.allocs"] = float64(base.res.allocs) / bn
	m["gc.cycles"] = float64(base.res.gcCycles) / bn
	m["gc.pause_ms"] = 0
	if base.res.gcCycles > 0 {
		m["gc.pause_ms"] = float64(base.res.gcPauseNs) / 1e6 / float64(base.res.gcCycles)
	}
	m["gc.cpu_frac"] = 0
	if base.res.totalCPU > 0 {
		m["gc.cpu_frac"] = base.res.gcCPU / base.res.totalCPU
	}
	m["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	baseCPU := base.res.cpu.Seconds() / bn
	m["trace.overhead_frac"] = (traced.res.cpu.Seconds()/float64(traced.sessions))/baseCPU - 1

	rp := replayAll(acc.records)
	m["simtime.ns_per_event"] = rp.simNs
	m["netem.ns_per_packet"] = rp.netemNs
	m["pacer.ns_per_packet"] = rp.pacerNs
	m["rtp.packetize_ns"] = rp.packetizeNs
	m["rtp.reassemble_ns"] = rp.reassembleNs
	m["fb.ns_per_report"] = rp.fbNs
	m["cc.ns_per_call"] = rp.ccNs
	m["cc.replay_mismatch"] = float64(rp.ccMismatch)
	m["codec.ns_per_frame"] = rp.codecNs
	m["codec.replay_mismatch"] = float64(rp.codecMismatch)
	if rp.ccMismatch > 0 || rp.codecMismatch > 0 {
		rep.fail("replays diverged from the traced sessions: %d codec, %d cc mismatches", rp.codecMismatch, rp.ccMismatch)
	}

	// Ledger: per-layer unit costs times per-session counts, plus the
	// runtime's GC CPU per session, against the untraced host time of a
	// session.
	ledgerNs := m["simtime.events"]*rp.simNs +
		m["netem.packets"]*(rp.netemNs+rp.pacerNs) +
		rp.packetsPerSession*(rp.packetizeNs+rp.reassembleNs) +
		m["fb.reports"]*(rp.fbNs+rp.ccNs) +
		m["codec.frames"]*(rp.codecNs+m["core.ns_per_frame"]+m["video.ns_per_frame"]) +
		m["core.feedback_calls"]*m["core.ns_per_feedback"] +
		(m["session.build_us"]+m["session.new_us"]+m["session.result_us"])*1e3 +
		base.res.gcCPU*1e9/bn
	meanWallNs := 0.0
	for _, ns := range base.wallNs {
		meanWallNs += float64(ns)
	}
	meanWallNs /= bn
	m["ledger.unattributed_frac"] = 1 - ledgerNs/meanWallNs

	shares, samples, err := foldProfile(prof.Bytes(), "perfbench", "traced")
	if err != nil {
		return nil, err
	}
	for _, l := range profileLayers() {
		m["cpu_share."+l] = shares[l]
	}

	m["experiments.cells"], m["experiments.cell_ms_p50"], m["experiments.tail_idle_frac"] = 0, 0, 0
	if suite != nil {
		m["experiments.cells"] = float64(suite.cells) / float64(suite.runs)
		m["experiments.cell_ms_p50"] = quantile(suite.clock.cellNs, 0.5) / 1e6
		if suite.clock.spanNs > 0 {
			m["experiments.tail_idle_frac"] = float64(suite.clock.idleNs) / float64(suite.clock.spanNs)
		}
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("untraced: %d sessions in %.3fs; traced: %d sessions in %.3fs; %d replayed; %d profile samples",
			base.sessions, base.wall.Seconds(), traced.sessions, traced.wall.Seconds(), len(acc.records), samples),
		fmt.Sprintf("ledger: %.0f ns of layer costs per session against %.0f ns untraced host time", ledgerNs, meanWallNs))
	return rep, nil
}
