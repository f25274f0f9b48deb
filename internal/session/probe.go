package session

import (
	"time"

	"rtcadapt/internal/cc"
	"rtcadapt/internal/fb"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/rtp"
	"rtcadapt/internal/units"
)

// probePayloadType marks padding probe packets.
const probePayloadType = 126

// probeController sends periodic padding clusters at a multiple of the
// current estimate and measures each cluster's delivery rate from
// feedback, feeding proven capacity back into the estimator (libwebrtc's
// ProbeController + ProbeBitrateEstimator, reduced to the mechanism that
// matters here: rediscovering capacity quickly after a drop ends).
type probeController struct {
	s *Session

	// Interval between probe clusters. Default 4 s.
	interval time.Duration
	// packets per cluster and the rate multiple they are paced at.
	clusterLen int
	gain       float64

	pending  map[uint32]time.Duration // transport seq -> arrival (0 = outstanding)
	expected int
	sent     int
	clusters int
	applied  int
}

func newProbeController(s *Session) *probeController {
	return &probeController{
		s:          s,
		interval:   4 * time.Second,
		clusterLen: 6,
		gain:       2.0,
		pending:    make(map[uint32]time.Duration),
	}
}

// start arms the periodic cluster timer (called at session start).
func (pc *probeController) start() {
	pc.s.sched.Tick(pc.interval, pc.fire)
}

// fire emits one probe cluster, tightly paced at gain x the current
// estimate, bypassing the media pacer so cluster spacing is controlled.
func (pc *probeController) fire() {
	now := pc.s.sched.Now()
	if now >= pc.s.cfg.StartAt+pc.s.cfg.Duration {
		return
	}
	if len(pc.pending) > 0 {
		// Previous cluster still unresolved; skip this round.
		return
	}
	// Don't probe into an existing backlog.
	if pc.s.pc.QueueBytes() > 0 {
		return
	}
	rate := pc.s.est.Snapshot(now).Target.Scale(pc.gain)
	if rate <= 0 {
		return
	}
	pc.clusters++
	const size = 1200
	gap := rate.DurationToSend(units.Bytes(size).Bits())
	for i := 0; i < pc.clusterLen; i++ {
		i := i
		pc.s.sched.After(time.Duration(i)*gap, func() {
			pkt := &rtp.Packet{
				Header: rtp.Header{
					Version:     2,
					PayloadType: probePayloadType,
					SSRC:        pc.s.cfg.SSRC,
				},
				Ext: rtp.Extension{
					TransportSeq: pc.s.packetizer.AllocTransportSeq(),
					FragCount:    1,
				},
				PayloadLen: size,
			}
			pc.pending[pkt.Ext.TransportSeq] = 0
			pc.sent++
			pc.s.history.Add(pkt.Ext.TransportSeq, pc.s.sched.Now(), pkt.WireSize())
			pc.s.forward.Send(netem.Packet{Size: pkt.WireSize(), Payload: pkt})
		})
	}
	pc.expected = pc.clusterLen
}

// onResults consumes feedback results, resolving probe clusters.
func (pc *probeController) onResults(results []fb.PacketResult) {
	if len(pc.pending) == 0 {
		return
	}
	for i := range results {
		r := &results[i]
		if _, ours := pc.pending[r.TransportSeq]; !ours {
			continue
		}
		if r.Lost {
			// A lost probe invalidates the cluster.
			clear(pc.pending)
			return
		}
		pc.pending[r.TransportSeq] = r.Arrival
	}
	// Complete?
	var first, last time.Duration
	var bytes int
	n := 0
	for _, arr := range pc.pending {
		if arr == 0 {
			return // still outstanding
		}
		if n == 0 || arr < first {
			first = arr
		}
		if arr > last {
			last = arr
		}
		bytes += 1200 + rtp.IPUDPOverhead + rtp.HeaderSize + rtp.ExtensionSize
		n++
	}
	clear(pc.pending)
	if n < 2 || last <= first {
		return
	}
	rate := float64(bytes*8) / (last - first).Seconds()
	if g, ok := pc.s.est.(*cc.GCC); ok {
		g.ApplyProbe(units.BitsPerSec(rate))
		pc.applied++
	}
}
