package simtime

import (
	"testing"
	"time"
)

// Horizon tests: deadlines spread from microseconds to more than a day,
// so ordering, cancellation and Reset are checked far from the session
// operating point (a handful of timers within a few hundred ms). The
// TestWheel names date from when these horizons exercised the levels of
// a timer wheel; they now pin the heap to the same behaviour.

// horizonDeadlines spans nine orders of magnitude of virtual time.
var horizonDeadlines = []time.Duration{
	500 * time.Microsecond,
	100 * time.Millisecond,
	30 * time.Second,
	2 * time.Hour,
	12 * time.Hour,
	30 * time.Hour,
}

// TestWheelCascadeAcrossLevels schedules one event per horizon and checks
// they fire in deadline order at exact times.
func TestWheelCascadeAcrossLevels(t *testing.T) {
	s := NewScheduler()
	var fired []time.Duration
	for _, d := range horizonDeadlines {
		s.At(d, func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	if len(fired) != len(horizonDeadlines) {
		t.Fatalf("fired %d events, want %d", len(fired), len(horizonDeadlines))
	}
	for i, want := range horizonDeadlines {
		if fired[i] != want {
			t.Errorf("fire %d at %v, want %v", i, fired[i], want)
		}
	}
}

// TestWheelSameInstantTieAfterCascade pins the FIFO tie-break for
// same-instant events scheduled at very different times: one scheduled
// 10 s ahead, one scheduled 9 s later for the same instant. The earlier
// seq must fire first.
func TestWheelSameInstantTieAfterCascade(t *testing.T) {
	s := NewScheduler()
	at := 10 * time.Second
	var got []int
	s.At(at, func() { got = append(got, 0) }) // seq 0
	s.At(at-time.Second, func() {             // fires at 9s
		s.At(at, func() { got = append(got, 1) }) // seq 2, same instant
	})
	s.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("same-instant fire order %v, want [0 1]", got)
	}
}

// TestWheelCancelInSlotList cancels the first, middle and last of five
// same-instant events plus one far-future event; the survivors must keep
// their FIFO order.
func TestWheelCancelInSlotList(t *testing.T) {
	s := NewScheduler()
	at := time.Millisecond
	var got []int
	evs := make([]Event, 5)
	for i := range evs {
		i := i
		evs[i] = s.At(at, func() { got = append(got, i) })
	}
	far := s.At(30*time.Hour, func() { got = append(got, 99) })
	evs[4].Cancel()
	evs[2].Cancel()
	evs[0].Cancel()
	far.Cancel()
	if s.Len() != 2 {
		t.Fatalf("Len = %d after cancels, want 2", s.Len())
	}
	s.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("survivors fired %v, want [1 3]", got)
	}
}

// TestWheelResetAcrossLevels applies the pool-poisoning protocol to a
// scheduler holding events at every horizon: Reset it, poison the
// recycled records, and require a rerun to be indistinguishable from a
// fresh scheduler. A heap entry or record that Reset missed would
// resurface here as a firing from the previous life.
func TestWheelResetAcrossLevels(t *testing.T) {
	s := NewScheduler()
	for _, d := range horizonDeadlines {
		s.At(d, func() { t.Errorf("event from pre-Reset life fired at %v", s.Now()) })
	}
	s.RunUntil(200 * time.Microsecond)
	s.Reset()
	if s.Len() != 0 || s.Now() != 0 {
		t.Fatalf("after Reset: Len=%d Now=%v, want zeros", s.Len(), s.Now())
	}
	if n := poisonFreeEvents(t, s); n < len(horizonDeadlines) {
		t.Fatalf("free list holds %d records after Reset, want >= %d", n, len(horizonDeadlines))
	}

	workload := func(s *Scheduler) []time.Duration {
		var fired []time.Duration
		for _, d := range horizonDeadlines {
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		return fired
	}
	got := workload(s)
	want := workload(NewScheduler())
	if len(got) != len(want) {
		t.Fatalf("reused scheduler fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fire %d at %v on reused scheduler, %v on fresh", i, got[i], want[i])
		}
	}
}

// TestWheelIdleRunUntil pins that advancing across an empty stretch of
// virtual time (RunUntil beyond every deadline) leaves the scheduler
// consistent: events scheduled afterwards still fire at exact times.
func TestWheelIdleRunUntil(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(3 * time.Hour)
	var at time.Duration
	s.After(90*time.Minute, func() { at = s.Now() })
	s.Run()
	if want := 3*time.Hour + 90*time.Minute; at != want {
		t.Errorf("post-idle event fired at %v, want %v", at, want)
	}
}

// TestWheelZeroAllocSteadyState is the mixed-horizon twin of
// TestSchedulerStepZeroAlloc: re-arms alternate between 50 µs, 7 ms and
// 3 s, and Step must still not allocate.
func TestWheelZeroAllocSteadyState(t *testing.T) {
	s := NewScheduler()
	var k int
	var churn func(any)
	churn = func(any) {
		horizons := []time.Duration{50 * time.Microsecond, 7 * time.Millisecond, 3 * time.Second}
		k++
		s.AfterArg(horizons[k%len(horizons)], churn, nil)
	}
	s.AfterArg(0, churn, nil)
	for i := 0; i < 1024; i++ { // reach pool steady state
		s.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Errorf("mixed-horizon steady-state Step allocates %.2f allocs/op, want 0", avg)
	}
}
