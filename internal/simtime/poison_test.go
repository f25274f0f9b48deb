package simtime

import (
	"testing"
	"time"
)

// Pool-poisoning protocol (ISSUE 7): fill every field of a recycled
// object with sentinel bytes, then exercise the normal acquire path and
// assert no sentinel is observable afterwards. A sentinel that leaks
// means some Get/reset path skipped a field — the class of bug that
// shows up as one session's state bleeding into the next on a reused
// fleet shard.

// freeList walks the scheduler's free chain and returns its records in
// pop order (test helper; the free list is an intrusive id chain through
// the arena, not a slice).
func freeList(s *Scheduler) []*event {
	var out []*event
	for id := s.freeHead; id != 0; {
		ev := s.evAt(id)
		out = append(out, ev)
		id = ev.next
	}
	return out
}

// poisonFreeEvents overwrites every field of every free-list record with
// sentinels. The fn/argFn sentinels fail the test if they ever run: a
// record whose stale closure survives into a new tenant's dispatch is
// the worst version of this bug (Step calls fn when non-nil, so a stale
// fn would shadow a new AtArg tenant entirely). The index sentinel
// covers the heap: push must place a recycled record before anything
// reads its position. id, gen, and the next free-chain link are the only
// fields a free record legitimately owns.
func poisonFreeEvents(t *testing.T, s *Scheduler) int {
	t.Helper()
	free := freeList(s)
	for _, ev := range free {
		ev.index = 0x5EA5_5EA5
		ev.fn = func() { t.Error("poisoned fn leaked into dispatch") }
		ev.argFn = func(any) { t.Error("poisoned argFn leaked into dispatch") }
		ev.arg = "poison"
		ev.canceledGen = 0xA5A5
	}
	return len(free)
}

// TestPoisonedPoolRecordsDoNotLeak pins that schedule() fully
// initializes a recycled record: a workload on a poisoned pool must be
// indistinguishable from the same workload on a fresh scheduler.
func TestPoisonedPoolRecordsDoNotLeak(t *testing.T) {
	workload := func(s *Scheduler) []time.Duration {
		var fired []time.Duration
		s.AtArg(2*time.Millisecond, func(any) { fired = append(fired, s.Now()) }, nil)
		s.At(time.Millisecond, func() { fired = append(fired, s.Now()) })
		s.After(3*time.Millisecond, func() { fired = append(fired, s.Now()) })
		s.Run()
		return fired
	}

	s := NewScheduler()
	for i := 0; i < 8; i++ { // populate the free list
		s.After(time.Duration(i+1)*time.Microsecond, func() {})
	}
	s.Run()
	s.Reset()
	if n := poisonFreeEvents(t, s); n < 1 {
		t.Fatal("free list empty; poisoning exercised nothing")
	}

	got := workload(s)
	want := workload(NewScheduler())
	if len(got) != len(want) {
		t.Fatalf("poisoned pool fired %d events, fresh fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("firing %d at %v on poisoned pool, %v on fresh", i, got[i], want[i])
		}
	}
}

// TestReleaseClearsPayloadFields pins the release side of the contract:
// records returned to the free list hold no callback, argument, or
// argument-callback reference (they would pin arbitrary object graphs
// for the pool's lifetime).
func TestReleaseClearsPayloadFields(t *testing.T) {
	s := NewScheduler()
	s.At(time.Millisecond, func() {})
	s.AtArg(2*time.Millisecond, func(any) {}, "payload")
	s.At(time.Hour, func() {}).Cancel()
	s.Run()
	free := freeList(s)
	if len(free) == 0 {
		t.Fatal("free list empty after run")
	}
	for i, ev := range free {
		if ev.fn != nil || ev.argFn != nil || ev.arg != nil {
			t.Errorf("free record %d retains payload: fn=%v argFn=%v arg=%v",
				i, ev.fn != nil, ev.argFn != nil, ev.arg)
		}
		if ev.index != -1 {
			t.Errorf("free record %d still claims heap index %d", i, ev.index)
		}
	}
}
