package main

import (
	"math"
	"sort"
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/codec"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/fec"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/pacer"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/units"
)

// The replays time the layers a session wires internally, one
// layer at a time, on the inputs and operating point a traced session
// observed. Each replay loops over precomputed inputs and is timed as a
// whole, so no per-call timer cost enters the figures. The replays that
// need a scheduler (pacer, netem) subtract its share at the simtime
// replay's measured cost per event.

// replayEvents is how many events the scheduler replay fires.
const replayEvents = 200_000

// replayCosts are the per-unit host costs the replays measured, plus the
// codec and cc divergence counts (both must be zero).
type replayCosts struct {
	simNs, netemNs, pacerNs, packetizeNs, reassembleNs, fbNs, ccNs, codecNs float64
	packetsPerSession                                                       float64
	ccMismatch, codecMismatch                                               int
}

// replayPasses is how often the replays run over the recorded sessions;
// each per-unit cost is the median over passes, which keeps one pass
// that a busy host slowed down out of the figure.
const replayPasses = 5

func replayAll(recs []*sessionRecord) replayCosts {
	if len(recs) == 0 {
		return replayCosts{}
	}
	var events, depthSum int64
	var span time.Duration
	for _, r := range recs {
		events += r.events
		depthSum += r.depthSum
		span += sessionDurationOf(r.cfg) + 2*time.Second
	}
	depth := int(math.Max(1, math.Round(float64(depthSum)/float64(events))))
	var passes []replayCosts
	for i := 0; i < replayPasses; i++ {
		simNs := replayScheduler(depth, span/time.Duration(events), replayEvents)
		passes = append(passes, replayPass(recs, simNs))
	}
	median := func(field func(c *replayCosts) *float64) {
		var xs []float64
		for i := range passes {
			xs = append(xs, *field(&passes[i]))
		}
		*field(&passes[0]) = medianFloat(xs)
	}
	median(func(c *replayCosts) *float64 { return &c.simNs })
	median(func(c *replayCosts) *float64 { return &c.netemNs })
	median(func(c *replayCosts) *float64 { return &c.pacerNs })
	median(func(c *replayCosts) *float64 { return &c.packetizeNs })
	median(func(c *replayCosts) *float64 { return &c.reassembleNs })
	median(func(c *replayCosts) *float64 { return &c.fbNs })
	median(func(c *replayCosts) *float64 { return &c.ccNs })
	median(func(c *replayCosts) *float64 { return &c.codecNs })
	return passes[0]
}

// replayPass runs every replay once over the recorded sessions. simNs is
// the scheduler's cost per event, subtracted from the replays that run on
// a scheduler.
func replayPass(recs []*sessionRecord, simNs float64) replayCosts {
	c := replayCosts{simNs: simNs}
	var codecNs, ccNs, packetizeNs, pacerNs, netemNs, reassembleNs, fbNs int64
	var frames, ccCalls, packets, pacerPkts, reassembled, reports int64
	for _, r := range recs {
		ns, mis := replayCodec(r)
		codecNs += ns
		frames += int64(len(r.frames))
		c.codecMismatch += mis
		ns, calls, mis := replayCC(r)
		ccNs += ns
		ccCalls += int64(calls)
		c.ccMismatch += mis

		pl := replayPacketize(r)
		packetizeNs += pl.ns
		packets += int64(pl.packets)
		sent, ns, ev := replayPacer(r, pl)
		pacerNs += ns - int64(float64(ev)*simNs)
		pacerPkts += int64(len(sent))
		arr, ns, ev := replayLink(r, sent)
		netemNs += ns - int64(float64(ev)*simNs)
		ns, n := replayReceive(r, arr)
		reassembleNs += ns
		reassembled += int64(n)
		ns, n = replayFeedback(r, sent, arr)
		fbNs += ns
		reports += int64(n)
	}
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	c.codecNs = per(codecNs, frames)
	c.ccNs = per(ccNs, ccCalls)
	c.packetizeNs = per(packetizeNs, packets)
	c.pacerNs = per(pacerNs, pacerPkts)
	c.netemNs = per(netemNs, pacerPkts)
	c.reassembleNs = per(reassembleNs, reassembled)
	c.fbNs = per(fbNs, reports)
	c.packetsPerSession = float64(packets) / float64(len(recs))
	return c
}

// schedLoad keeps a scheduler at a fixed depth: every fired event
// re-arms itself at a pseudo-random delay around depth x gap, so the
// queue holds depth events and the clock advances by about gap per event,
// the operating point the traced sessions showed.
type schedLoad struct {
	sched *simtime.Scheduler
	mean  time.Duration
	x     uint64
}

func (l *schedLoad) delay() time.Duration {
	l.x ^= l.x << 13
	l.x ^= l.x >> 7
	l.x ^= l.x << 17
	u := float64(l.x>>11) / (1 << 53)
	return time.Duration(float64(l.mean) * (0.5 + u))
}

func rearm(a any) {
	l := a.(*schedLoad)
	l.sched.AfterArg(l.delay(), rearm, l)
}

// replayScheduler returns the scheduler's host cost per fired event at
// the given depth and mean clock advance.
func replayScheduler(depth int, gap time.Duration, n int) float64 {
	if gap <= 0 {
		gap = time.Millisecond
	}
	l := &schedLoad{sched: simtime.NewScheduler(), mean: gap * time.Duration(depth), x: 0x9e3779b97f4a7c15}
	for i := 0; i < depth; i++ {
		l.sched.AfterArg(l.delay(), rearm, l)
	}
	for i := 0; i < n/10; i++ { // warm the event pool
		l.sched.Step()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.sched.Step()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// replayCodec re-encodes the recorded frames under the recorded
// directives on an encoder configured as the session configures its own,
// and counts outputs that differ from what the session's encoder
// produced.
func replayCodec(r *sessionRecord) (ns int64, mismatch int) {
	ecfg := r.cfg.Encoder
	ecfg.TargetBitrate = sessionInitialRate(r.cfg)
	ecfg.FPS = sessionFPS(r.cfg)
	ecfg.Seed = r.cfg.Seed + 1
	enc := codec.NewEncoder(ecfg)
	out := make([]codec.EncodedFrame, len(r.frames))
	t0 := time.Now()
	for i, f := range r.frames {
		out[i] = enc.Encode(f, r.dirs[i])
	}
	ns = time.Since(t0).Nanoseconds()
	if len(r.encoded) != len(out) {
		return ns, len(out) + 1
	}
	for i := range out {
		if out[i] != r.encoded[i] {
			mismatch++
		}
	}
	return ns, mismatch
}

// replayCC feeds the recorded feedback batches and Snapshot reads, in
// order, to a fresh GCC built as the session builds its default
// estimator, and counts snapshots that differ from the session's.
func replayCC(r *sessionRecord) (ns int64, calls, mismatch int) {
	g := cc.NewGCC(cc.GCCConfig{InitialRate: sessionInitialRate(r.cfg)})
	got := make([]cc.Snapshot, len(r.ccOps))
	t0 := time.Now()
	for i, op := range r.ccOps {
		if op.results != nil {
			g.OnPacketResults(op.now, op.results)
		} else {
			got[i] = g.Snapshot(op.now)
		}
	}
	ns = time.Since(t0).Nanoseconds()
	for i, op := range r.ccOps {
		if op.results != nil {
			calls++
		} else if got[i] != op.snap {
			mismatch++
		}
	}
	return ns, calls, mismatch
}

// item is one packet the sender hands to the pacer or the pacer to the
// link.
type item struct {
	at      time.Duration
	payload any
	size    int
}

type packetized struct {
	ns      int64
	packets int
	frames  [][]item // per encoded frame, released at capture + encode time
}

// replayPacketize packetizes the recorded non-skipped frames (adding FEC
// repairs when the session had FEC on) as the session does.
func replayPacketize(r *sessionRecord) packetized {
	ssrc := r.cfg.SSRC
	if ssrc == 0 {
		ssrc = uint32(r.cfg.Seed) + 100
	}
	pk := rtp.NewPacketizer(ssrc, 96, r.cfg.MTU)
	var fecEnc *fec.GroupEncoder
	if r.cfg.FECGroupSize > 0 {
		fecEnc = fec.NewGroupEncoder(ssrc, r.cfg.FECGroupSize)
	}
	var out packetized
	var pkts []*rtp.Packet
	var repairs []*fec.Repair
	t0 := time.Now()
	for _, ef := range r.encoded {
		if ef.Type == codec.TypeSkip {
			continue
		}
		start := len(pkts)
		pkts = pk.PacketizeAppend(pkts, ef)
		frame := make([]item, 0, len(pkts)-start)
		for _, p := range pkts[start:] {
			frame = append(frame, item{at: ef.PTS + ef.EncodeTime, payload: p, size: p.WireSize()})
		}
		if fecEnc != nil {
			repairs = repairs[:0]
			for _, p := range pkts[start:] {
				if rep := fecEnc.Add(p); rep != nil {
					repairs = append(repairs, rep)
				}
			}
			if rep := fecEnc.Flush(); rep != nil {
				repairs = append(repairs, rep)
			}
			for _, rep := range repairs {
				rep.TransportSeq = pk.AllocTransportSeq()
				frame = append(frame, item{at: ef.PTS + ef.EncodeTime, payload: rep, size: rep.WireSize()})
			}
		}
		out.packets += len(frame)
		out.frames = append(out.frames, frame)
	}
	out.ns = time.Since(t0).Nanoseconds()
	return out
}

// inject schedules inputs onto sched one at a time, so that the injector
// adds a single event to the queue rather than all inputs at once.
type inject struct {
	sched *simtime.Scheduler
	at    []time.Duration
	apply func(i int)
	next  int
}

func injectArg(a any) {
	in := a.(*inject)
	in.apply(in.next)
	in.next++
	if in.next < len(in.at) {
		in.sched.AtArg(in.at[in.next], injectArg, in)
	}
}

func (in *inject) start() {
	if len(in.at) > 0 {
		in.sched.AtArg(in.at[0], injectArg, in)
	}
}

// drain runs sched until its queue is empty and returns the events fired.
func drain(sched *simtime.Scheduler) int64 {
	var n int64
	for sched.Step() {
		n++
	}
	return n
}

// replayPacer releases each frame's packets into a pacer at the frame's
// release time, with the pacing rate following the estimator targets the
// session applied after each feedback batch. It returns what the pacer
// sent, with the host time and the events fired.
func replayPacer(r *sessionRecord, pl packetized) (sent []item, ns, events int64) {
	type input struct {
		at    time.Duration
		frame int // -1: rate change
		rate  units.BitsPerSec
	}
	var inputs []input
	for i, f := range pl.frames {
		inputs = append(inputs, input{at: f[0].at, frame: i})
	}
	for i, op := range r.ccOps {
		if op.results != nil && i+1 < len(r.ccOps) && r.ccOps[i+1].results == nil && r.ccOps[i+1].snap.Target > 0 {
			inputs = append(inputs, input{at: op.now, frame: -1, rate: r.ccOps[i+1].snap.Target})
		}
	}
	sort.SliceStable(inputs, func(a, b int) bool { return inputs[a].at < inputs[b].at })

	sched := simtime.NewScheduler()
	pc := pacer.New(sched, pacer.Config{Rate: sessionInitialRate(r.cfg)}, func(payload any, size int) {
		sent = append(sent, item{at: sched.Now(), payload: payload, size: size})
	})
	in := &inject{sched: sched, apply: func(i int) {
		if f := inputs[i].frame; f >= 0 {
			for _, it := range pl.frames[f] {
				pc.Enqueue(it.payload, it.size)
			}
		} else {
			pc.SetRate(inputs[i].rate)
		}
	}}
	for _, x := range inputs {
		in.at = append(in.at, x.at)
	}
	t0 := time.Now()
	in.start()
	events = drain(sched)
	return sent, time.Since(t0).Nanoseconds(), events
}

// replayLink offers the pacer's output to a bottleneck link configured as
// the session configures its forward link, and returns the deliveries.
func replayLink(r *sessionRecord, sent []item) (arrivals []item, ns, events int64) {
	sched := simtime.NewScheduler()
	link := netem.NewLink(sched, netem.Config{
		Trace:           r.cfg.Trace,
		PropDelay:       r.cfg.PropDelay,
		JitterAmp:       r.cfg.JitterAmp,
		LossProb:        r.cfg.LossProb,
		QueueLimitBytes: r.cfg.QueueLimitBytes,
		Seed:            r.cfg.Seed + 2,
	})
	link.SetReceiver(netem.ReceiverFunc(func(p netem.Packet, at time.Duration) {
		arrivals = append(arrivals, item{at: at, payload: p.Payload, size: p.Size})
	}))
	in := &inject{sched: sched, apply: func(i int) {
		link.Send(netem.Packet{Size: sent[i].size, Payload: sent[i].payload})
	}}
	for _, s := range sent {
		in.at = append(in.at, s.at)
	}
	t0 := time.Now()
	in.start()
	events = drain(sched)
	return arrivals, time.Since(t0).Nanoseconds(), events
}

// replayReceive pushes the deliveries through the receiver as the session
// does: every media packet (received or FEC-recovered) is tracked for
// NACKs and reassembled, repair packets feed the FEC decoder, and the
// NACK list is collected every feedback interval.
func replayReceive(r *sessionRecord, arrivals []item) (ns int64, n int) {
	ra := rtp.NewReassembler()
	ra.Horizon = 15
	var nack *rtp.NackGenerator
	if r.cfg.NACK {
		nack = rtp.NewNackGenerator()
	}
	var dec *fec.Decoder
	if r.cfg.FECGroupSize > 0 {
		dec = fec.NewDecoder()
	}
	media := func(p *rtp.Packet, at time.Duration) {
		if nack != nil {
			nack.OnPacket(p.SequenceNumber)
		}
		ra.Push(p, at)
		ra.Lost()
	}
	interval := feedbackInterval(r.cfg)
	next := interval
	t0 := time.Now()
	for _, a := range arrivals {
		for ; nack != nil && next <= a.at; next += interval {
			nack.Collect(next)
		}
		switch p := a.payload.(type) {
		case *rtp.Packet:
			media(p, a.at)
			if dec != nil {
				for _, rec := range dec.OnMedia(p.SequenceNumber) {
					media(rec, a.at)
				}
			}
		case *fec.Repair:
			if dec != nil {
				for _, rec := range dec.OnRepair(p) {
					media(rec, a.at)
				}
			}
		}
		n++
	}
	return time.Since(t0).Nanoseconds(), n
}

func feedbackInterval(cfg session.Config) time.Duration {
	if cfg.FeedbackInterval == 0 {
		return 50 * time.Millisecond
	}
	return cfg.FeedbackInterval
}

// replayFeedback runs the feedback path: the sender's history records
// every sent packet, the receiver's recorder every delivery, and each
// feedback interval the recorder's report is matched against the
// history. It returns the host time and the reports produced.
func replayFeedback(r *sessionRecord, sent, arrivals []item) (ns int64, reports int) {
	type op struct {
		at   time.Duration
		kind int // 0 send, 1 arrival, 2 flush
		seq  uint32
		size int
	}
	seqOf := func(p any) uint32 {
		switch p := p.(type) {
		case *rtp.Packet:
			return p.Ext.TransportSeq
		case *fec.Repair:
			return p.TransportSeq
		}
		return 0
	}
	var ops []op
	for _, s := range sent {
		ops = append(ops, op{at: s.at, kind: 0, seq: seqOf(s.payload), size: s.size})
	}
	for _, a := range arrivals {
		ops = append(ops, op{at: a.at, kind: 1, seq: seqOf(a.payload), size: a.size})
	}
	interval := feedbackInterval(r.cfg)
	end := r.cfg.StartAt + sessionDurationOf(r.cfg) + 2*time.Second
	for t := interval; t <= end; t += interval {
		ops = append(ops, op{at: t, kind: 2})
	}
	sort.SliceStable(ops, func(a, b int) bool {
		if ops[a].at != ops[b].at {
			return ops[a].at < ops[b].at
		}
		return ops[a].kind < ops[b].kind
	})
	h := fb.NewHistory()
	rc := fb.NewRecorder()
	t0 := time.Now()
	for _, o := range ops {
		switch o.kind {
		case 0:
			h.Add(o.seq, o.at, o.size)
		case 1:
			rc.OnPacket(o.seq, o.at, o.size)
		default:
			rep := rc.Flush(o.at)
			h.OnReport(rep)
			rc.Recycle(rep)
			reports++
		}
	}
	return time.Since(t0).Nanoseconds(), reports
}
