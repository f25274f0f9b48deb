package simtime

import (
	"testing"
	"time"
)

func BenchmarkSchedulerChurn(b *testing.B) {
	s := NewScheduler()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%100)*time.Microsecond, func() {})
		if i%64 == 0 {
			for s.Step() {
			}
		}
	}
	s.Run()
}

// BenchmarkSchedulerStep measures the pooled, closure-free steady state:
// one Step pops an event whose callback reschedules itself through the
// AfterArg path. This is the inner loop of every simulation; it must stay
// at 0 B/op (see TestSchedulerStepZeroAlloc).
func BenchmarkSchedulerStep(b *testing.B) {
	s := NewScheduler()
	s.AfterArg(0, stepBenchFn, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkTicker(b *testing.B) {
	s := NewScheduler()
	n := 0
	s.Tick(time.Millisecond, func() { n++ })
	b.ResetTimer()
	s.RunUntil(time.Duration(b.N) * time.Millisecond)
}

// mixedHorizons spans six orders of magnitude, from pacing gaps to
// minute-scale timeouts, so a standing population re-arming over the mix
// keeps deep sifts on the measured path.
var mixedHorizons = [8]time.Duration{
	50 * time.Microsecond,
	300 * time.Microsecond,
	2 * time.Millisecond,
	20 * time.Millisecond,
	150 * time.Millisecond,
	time.Second,
	10 * time.Second,
	80 * time.Second,
}

// mixedChurner is the closure-free state for mixedChurnFn; one per
// standing event so the population never shrinks. rng is a per-churner
// LCG so deadlines de-synchronize — real timer populations (pacing
// intervals, RTT-jittered feedback, retransmit deadlines) spread out
// rather than expiring in lockstep cohorts.
type mixedChurner struct {
	s   *Scheduler
	rng uint32
}

// mixedDelay draws the next re-arm horizon: one of the mixedHorizons
// classes plus up to ~8 ms of jitter, from the churner's deterministic
// LCG stream.
func (c *mixedChurner) mixedDelay() time.Duration {
	c.rng = c.rng*1664525 + 1013904223
	return mixedHorizons[c.rng>>13&7] + time.Duration(c.rng&8191)*time.Microsecond
}

func mixedChurnFn(a any) {
	c := a.(*mixedChurner)
	c.s.AfterArg(c.mixedDelay(), mixedChurnFn, a)
}

// BenchmarkSchedulerMixedHorizon measures Step with 16k standing
// self-rearming events, a depth no simulation reaches. It is a complexity
// tripwire, not an operating point: an O(n) scan on the push or pop path
// shows up here as a 10-100x regression.
func BenchmarkSchedulerMixedHorizon(b *testing.B) {
	s := NewScheduler()
	const standing = 1 << 14
	churners := make([]mixedChurner, standing)
	for i := range churners {
		churners[i] = mixedChurner{s: s, rng: uint32(i)}
		s.AfterArg(churners[i].mixedDelay(), mixedChurnFn, &churners[i])
	}
	for i := 0; i < standing; i++ { // reach pool steady state
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func cancelBenchNoop(any) {}

// BenchmarkSchedulerCancel measures cancel-and-replace from deep inside a
// 4k-event queue: an interior removal plus a push per op. Like
// MixedHorizon it is a complexity tripwire at a depth no run reaches.
func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	const ring = 1 << 12
	evs := make([]Event, ring)
	for i := range evs {
		evs[i] = s.AtArg(s.Now()+mixedHorizons[i&7], cancelBenchNoop, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (ring - 1)
		evs[j].Cancel()
		evs[j] = s.AtArg(s.Now()+mixedHorizons[i&7], cancelBenchNoop, nil)
	}
}

// sessionLoad replays one simulated session's timer mix at the queue
// depth traced fleet sessions run at (about 6 live events, never more
// than 8): a 30 fps capture ticker hands each frame's packets to a pacer
// that pumps one packet every 1-3 ms, each packet is delivered 15-25 ms
// later, and a 50 ms feedback ticker cancels and re-arms a retransmit
// timeout. Everything dispatches through AtArg or a Ticker, as the
// session does, so the load is allocation-free.
type sessionLoad struct {
	s       *Scheduler
	rng     uint32
	backlog int  // packets the pacer has yet to release
	pumping bool // a pump event is queued
	rto     Event
}

// jitter draws a deterministic delay in [0, span).
func (l *sessionLoad) jitter(span time.Duration) time.Duration {
	l.rng = l.rng*1664525 + 1013904223
	return time.Duration(l.rng>>8) % span
}

func newSessionLoad() *sessionLoad {
	l := &sessionLoad{s: NewScheduler(), rng: 1}
	l.s.Tick(33*time.Millisecond, l.frame)
	l.s.Tick(50*time.Millisecond, l.feedback)
	l.rto = l.s.AfterArg(200*time.Millisecond, sessionNoop, nil)
	return l
}

func sessionNoop(any) {}

// frame queues a frame of 3-6 packets and wakes the pacer.
func (l *sessionLoad) frame() {
	l.backlog += 3 + int(l.jitter(4))
	if !l.pumping {
		l.pumping = true
		l.s.AfterArg(0, sessionPump, l)
	}
}

// sessionPump releases one packet onto the link and re-arms while the
// backlog lasts.
func sessionPump(a any) {
	l := a.(*sessionLoad)
	l.backlog--
	l.s.AfterArg(15*time.Millisecond+l.jitter(10*time.Millisecond), sessionNoop, nil)
	if l.backlog > 0 {
		l.s.AfterArg(time.Millisecond+l.jitter(2*time.Millisecond), sessionPump, l)
	} else {
		l.pumping = false
	}
}

// feedback replaces the retransmit timeout, the session's cancel path.
func (l *sessionLoad) feedback() {
	l.rto.Cancel()
	l.rto = l.s.AfterArg(200*time.Millisecond+l.jitter(20*time.Millisecond), sessionNoop, nil)
}

// BenchmarkSchedulerDepth measures Step at the scheduler's real operating
// point (see sessionLoad and TestSessionLoadDepth): the benchmark the
// bench-smoke ns/op gate holds the scheduler to.
func BenchmarkSchedulerDepth(b *testing.B) {
	l := newSessionLoad()
	for i := 0; i < 1024; i++ { // reach pool steady state
		l.s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.s.Step()
	}
}
