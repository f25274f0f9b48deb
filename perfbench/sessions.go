package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
)

// worker is the load goroutine's state: a scheduler reused across its
// sessions (the fleet's per-shard discipline) and, in a traced phase, the
// layer accumulators.
type worker struct {
	sched *simtime.Scheduler
	acc   *layerAcc
}

// sessionBody runs session j of the plan on w and returns its summary.
type sessionBody func(w *worker, p *plan, j int) (session.Summary, error)

// phase is the outcome of running a plan's batch repeatedly for a time
// budget.
type phase struct {
	sessions int
	failed   int
	problems []string
	wallNs   []int64 // host wall time of every session
	wall     time.Duration
	batch    []session.Summary
	digest   string
	mon      *monitor
	res      resources
}

// runPhase runs sessions 0, 1, 2, ... of the plan's batch, cycling through
// it, until budget has elapsed and at least one whole batch has finished.
// Every later repetition of session j must reproduce the first one
// exactly; a repetition that does not counts as failed.
//
// Sessions run one at a time on the calling goroutine, like a fleet shard
// (`rtcfleet -workers 1`). The runtime's GC and the heap monitor then
// have the other cores, and interference from other processes on the host
// moves the figures less than with every core loaded. (The paper suite
// runs on GOMAXPROCS workers instead: its runner's fan-out and tail are
// what it measures.)
func runPhase(p *plan, budget time.Duration, body sessionBody, acc *layerAcc) *phase {
	ph := &phase{batch: make([]session.Summary, p.n)}
	w := &worker{sched: simtime.NewScheduler(), acc: acc}
	ok := make([]bool, p.n)
	ph.mon = startMonitor()
	before := readResources()
	start := time.Now()
	for k := 0; k < p.n || time.Since(start) < budget; k++ {
		j := k % p.n
		t0 := time.Now()
		sum, err := safeRun(func() (session.Summary, error) { return body(w, p, j) })
		ph.wallNs = append(ph.wallNs, time.Since(t0).Nanoseconds())
		ph.sessions++
		switch {
		case err != nil:
			ph.failed++
			ph.problems = append(ph.problems, fmt.Sprintf("%s session %d: %v", p.name, j, err))
		case k < p.n:
			ph.batch[j], ok[j] = sum, true
		case ok[j] && sum != ph.batch[j]:
			ph.failed++
			ph.problems = append(ph.problems, fmt.Sprintf("%s session %d: repetition %d differs from the first run", p.name, j, k/p.n))
		}
	}
	ph.wall = time.Since(start)
	ph.res = readResources().since(before)
	ph.mon.stop()

	h := sha256.New()
	for j, s := range ph.batch {
		fmt.Fprintf(h, "%d %+v\n", j, s)
	}
	ph.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return ph
}

// safeRun converts a panic in a session into an error so it counts as a
// failed session instead of ending the run.
func safeRun(fn func() (session.Summary, error)) (sum session.Summary, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// runUntraced is the plain session path: build, validate, run on the
// worker's recycled scheduler, check.
func runUntraced(w *worker, p *plan, j int) (session.Summary, error) {
	cfg := p.build(j)
	if err := cfg.Validate(); err != nil {
		return session.Summary{}, err
	}
	w.sched.Reset()
	sum := session.Unit{Index: j, Cfg: cfg}.RunOn(w.sched)
	return sum, checkSummary(sum)
}

// checkSummary verifies the identities every finished session must
// satisfy, seen from outside the program: the frame outcomes partition
// the captured frames, and the forward link's packets balance (every
// accepted packet was delivered, lost on the wire, or is still in the
// link when the run stops).
func checkSummary(s session.Summary) error {
	r := s.Report
	if r.Frames <= 0 {
		return fmt.Errorf("no frames captured")
	}
	if r.DeliveredFrames+r.SkippedFrames+r.DroppedFrames != r.Frames {
		return fmt.Errorf("frame partition broken: %d delivered + %d skipped + %d dropped != %d frames",
			r.DeliveredFrames, r.SkippedFrames, r.DroppedFrames, r.Frames)
	}
	if r.DeliveredFrames == 0 {
		return fmt.Errorf("no frame delivered")
	}
	ls := s.LinkStats
	if ls.Accepted <= 0 || ls.Delivered <= 0 {
		return fmt.Errorf("link carried nothing: %+v", ls)
	}
	if inFlight := ls.Accepted - ls.Delivered - ls.DroppedLoss; inFlight < 0 || ls.DroppedQueue < 0 {
		return fmt.Errorf("link packet balance broken: accepted %d < delivered %d + lost %d (queue drops %d)",
			ls.Accepted, ls.Delivered, ls.DroppedLoss, ls.DroppedQueue)
	}
	if !(r.MeanSSIM > 0 && r.MeanSSIM <= 1) {
		return fmt.Errorf("mean SSIM %v outside (0, 1]", r.MeanSSIM)
	}
	if !(0 < r.P50NetDelay && r.P50NetDelay <= r.P95NetDelay && r.P95NetDelay <= r.P99NetDelay && r.P99NetDelay <= r.MaxNetDelay) {
		return fmt.Errorf("delay percentiles out of order: p50 %v p95 %v p99 %v max %v",
			r.P50NetDelay, r.P95NetDelay, r.P99NetDelay, r.MaxNetDelay)
	}
	if s.Retransmitted > s.NacksSent || s.FECRecovered > ls.Delivered {
		return fmt.Errorf("recovery counters inconsistent: %d retransmitted for %d NACKs, %d FEC-recovered",
			s.Retransmitted, s.NacksSent, s.FECRecovered)
	}
	return nil
}

// simMetrics are the virtual-time results of one batch: delay and quality
// of the adaptive halves, freeze time over every session, and the
// adaptive-vs-native ratios over the pairs.
func simMetrics(p *plan, batch []session.Summary) metricSet {
	var aDelay, nDelay, aSSIM, nSSIM, freeze float64
	var na, nn int
	for j, s := range batch {
		freeze += s.Report.TotalFreeze.Seconds() * 1e3
		if p.adaptive(j) {
			aDelay += s.Report.P95NetDelay.Seconds() * 1e3
			aSSIM += s.Report.MeanSSIM
			na++
		} else {
			nDelay += s.Report.P95NetDelay.Seconds() * 1e3
			nSSIM += s.Report.MeanSSIM
			nn++
		}
	}
	aDelay, aSSIM = aDelay/float64(na), aSSIM/float64(na)
	nDelay, nSSIM = nDelay/float64(nn), nSSIM/float64(nn)
	return metricSet{
		"sim_delay_p95_ms":    aDelay,
		"sim_ssim":            aSSIM,
		"sim_freeze_ms":       freeze / float64(len(batch)),
		"delay_reduction_pct": (1 - aDelay/nDelay) * 100,
		"ssim_gain_pct":       (aSSIM/nSSIM - 1) * 100,
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// resources is a snapshot (or, after since, a delta) of process user+sys
// CPU and the runtime's allocation and GC counters.
type resources struct {
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPauseNs  uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds, as the runtime accounts it
}

func readResources() resources {
	r := resources{cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocBytes, r.allocs = ms.TotalAlloc, ms.Mallocs
	r.gcCycles, r.gcPauseNs = ms.NumGC, ms.PauseTotalNs
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = samples[1].Value.Float64()
	}
	return r
}

func (r resources) since(b resources) resources {
	return resources{
		cpu:        r.cpu - b.cpu,
		allocBytes: r.allocBytes - b.allocBytes,
		allocs:     r.allocs - b.allocs,
		gcCycles:   r.gcCycles - b.gcCycles,
		gcPauseNs:  r.gcPauseNs - b.gcPauseNs,
		gcCPU:      r.gcCPU - b.gcCPU,
		totalCPU:   r.totalCPU - b.totalCPU,
	}
}

// monitor samples the live-object heap every millisecond while a phase
// runs. Its peak is reported as the median over 500 ms windows of each
// window's peak: a window spans many GC cycles, so its peak is the heap
// just before collection, and the median keeps one coincidence of large
// sessions from setting the figure.
type monitor struct {
	peaks  []float64
	quit   chan struct{}
	exited chan struct{}
}

// monitorWindow is the length of one heap window.
const monitorWindow = 500 * time.Millisecond

func startMonitor() *monitor {
	m := &monitor{quit: make(chan struct{}), exited: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(m.exited)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		start := time.Now()
		var peak uint64
		for {
			select {
			case <-m.quit:
				if len(m.peaks) == 0 {
					m.peaks = append(m.peaks, float64(peak))
				}
				return
			case now := <-t.C:
				metrics.Read(sample)
				if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > peak {
					peak = v.Uint64()
				}
				if now.Sub(start) >= monitorWindow {
					m.peaks = append(m.peaks, float64(peak))
					start, peak = now, 0
				}
			}
		}
	}()
	return m
}

// stop ends sampling and waits for the sampler to exit.
func (m *monitor) stop() {
	close(m.quit)
	<-m.exited
}

// peakHeapMB is the median window peak in MiB.
func (m *monitor) peakHeapMB() float64 { return medianFloat(m.peaks) / (1 << 20) }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
