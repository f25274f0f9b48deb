package simtime

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Ordering oracle: op streams drive the scheduler and a reference model
// side by side. The model is a slice kept sorted by (at, seq) — too slow
// for a simulation, too simple to get wrong — and every fired event,
// clock reading, Len, Pending, Canceled and Cancel answer must match it.
// FuzzSchedulerOrder feeds the same interpreter with fuzzer-chosen bytes.

// refEvent is one pending event in the reference model.
type refEvent struct {
	at  time.Duration
	seq uint64
	tag int
}

// Handle states tracked by the model.
const (
	refPending = iota
	refFired
	refCanceled
)

// orderCheck runs an op stream against the scheduler and the model.
type orderCheck struct {
	t       *testing.T
	s       *Scheduler
	now     time.Duration
	seq     uint64
	queue   []refEvent // sorted by (at, seq)
	handles []Event    // indexed by tag
	state   []int      // indexed by tag
}

// schedule records a newly scheduled event in the model.
func (c *orderCheck) schedule(at time.Duration, ev Event) {
	tag := len(c.handles)
	re := refEvent{at: at, seq: c.seq, tag: tag}
	c.seq++
	i, _ := slices.BinarySearchFunc(c.queue, re, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	c.queue = slices.Insert(c.queue, i, re)
	c.handles = append(c.handles, ev)
	c.state = append(c.state, refPending)
}

// fired is every scheduled callback: the model's earliest event must be
// the one firing, at its deadline.
func (c *orderCheck) fired(tag int) {
	c.t.Helper()
	if len(c.queue) == 0 {
		c.t.Fatalf("tag %d fired but the model queue is empty", tag)
	}
	want := c.queue[0]
	if tag != want.tag || c.s.Now() != want.at {
		c.t.Fatalf("fired tag %d at %v, model expects tag %d (seq %d) at %v",
			tag, c.s.Now(), want.tag, want.seq, want.at)
	}
	c.queue = c.queue[1:]
	c.now = want.at
	c.state[tag] = refFired
}

// fireArg routes AtArg callbacks into fired, so both dispatch paths are
// under the oracle.
type fireArg struct {
	c   *orderCheck
	tag int
}

func fireArgFn(a any) {
	f := a.(*fireArg)
	f.c.fired(f.tag)
}

func (c *orderCheck) at(t time.Duration) {
	tag := len(c.handles)
	c.schedule(t, c.s.At(t, func() { c.fired(tag) }))
}

func (c *orderCheck) after(d time.Duration) {
	tag := len(c.handles)
	c.schedule(c.now+d, c.s.After(d, func() { c.fired(tag) }))
}

func (c *orderCheck) atArg(t time.Duration) {
	c.schedule(t, c.s.AtArg(t, fireArgFn, &fireArg{c: c, tag: len(c.handles)}))
}

// cancel cancels the handle with the given tag; it must report pending
// exactly when the model does, and read Canceled right after.
func (c *orderCheck) cancel(tag int) {
	c.t.Helper()
	wasPending := c.state[tag] == refPending
	if got := c.handles[tag].Cancel(); got != wasPending {
		c.t.Fatalf("Cancel(tag %d) = %v, model pending %v", tag, got, wasPending)
	}
	if !wasPending {
		return
	}
	i := slices.IndexFunc(c.queue, func(e refEvent) bool { return e.tag == tag })
	c.queue = slices.Delete(c.queue, i, i+1)
	c.state[tag] = refCanceled
	if !c.handles[tag].Canceled() {
		c.t.Fatalf("Canceled(tag %d) = false right after Cancel", tag)
	}
}

// step fires at most one event, as Scheduler.Step does.
func (c *orderCheck) step() {
	c.t.Helper()
	want := len(c.queue) > 0
	if got := c.s.Step(); got != want {
		c.t.Fatalf("Step = %v with %d model events pending", got, len(c.queue))
	}
}

func (c *orderCheck) runUntil(t time.Duration) {
	c.s.RunUntil(t)
	c.now = t
}

func (c *orderCheck) reset() {
	c.t.Helper()
	c.s.Reset()
	for _, e := range c.queue {
		c.state[e.tag] = refCanceled
		if !c.handles[e.tag].Canceled() {
			c.t.Fatalf("Canceled(tag %d) = false right after Reset", e.tag)
		}
	}
	c.queue = c.queue[:0]
	c.now = 0
	c.seq = 0
}

// verify compares the observable state with the model.
func (c *orderCheck) verify() {
	c.t.Helper()
	if c.s.Now() != c.now {
		c.t.Fatalf("Now = %v, model %v", c.s.Now(), c.now)
	}
	if c.s.Len() != len(c.queue) {
		c.t.Fatalf("Len = %d, model %d", c.s.Len(), len(c.queue))
	}
	at, ok := c.s.Peek()
	if ok != (len(c.queue) > 0) || (ok && at != c.queue[0].at) {
		c.t.Fatalf("Peek = %v,%v, model %d pending", at, ok, len(c.queue))
	}
	for tag, h := range c.handles {
		if h.Pending() != (c.state[tag] == refPending) {
			c.t.Fatalf("Pending(tag %d) = %v, model state %d", tag, h.Pending(), c.state[tag])
		}
		// A canceled handle's answer goes stale once its record is
		// recycled and canceled again; the other two states are exact.
		if c.state[tag] != refCanceled && h.Canceled() {
			c.t.Fatalf("Canceled(tag %d) = true, model state %d", tag, c.state[tag])
		}
	}
}

// checkOrder interprets ops as scheduler operations, two bytes each
// (opcode, operand), verifying against the model after every op and
// after a final drain. Horizons stretch exponentially with the operand,
// from ~1 µs to well past a day, so streams mix same-tick bursts with
// far deadlines.
func checkOrder(t *testing.T, ops []byte) {
	t.Helper()
	c := &orderCheck{t: t, s: NewScheduler()}
	for i := 0; i+1 < len(ops); i += 2 {
		op, val := ops[i], ops[i+1]
		d := time.Duration(val%16+1) * time.Microsecond << (val % 34)
		switch op % 8 {
		case 0:
			c.at(c.now + d)
		case 1:
			c.after(d)
		case 2:
			c.atArg(c.now + d)
		case 3: // a same-instant burst (FIFO tie-break coverage)
			at := c.now + time.Duration(val)*time.Millisecond
			for j := 0; j < 3; j++ {
				c.at(at)
			}
		case 4: // cancel an arbitrary handle (stale ones are no-ops)
			if len(c.handles) > 0 {
				c.cancel(int(val) % len(c.handles))
			}
		case 5:
			c.step()
		case 6:
			c.runUntil(c.now + time.Duration(val)*33*time.Microsecond)
		case 7: // reset, rarely: it wipes the queue, which would make
			// most streams trivial if it were as likely as scheduling
			if val == 0 {
				c.reset()
			} else {
				c.step()
			}
		}
		c.verify()
	}
	c.s.Run()
	c.verify()
	if len(c.queue) != 0 {
		t.Fatalf("Run left %d model events unfired", len(c.queue))
	}
}

// TestWheelMatchesHeapRandomOps drives the oracle with seeded random op
// streams: the cheap always-on cousin of FuzzSchedulerOrder. The name
// dates from when these streams compared a timer wheel against the heap;
// the seeds are the same and the heap now answers to the reference model.
func TestWheelMatchesHeapRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 400)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			checkOrder(t, ops)
		})
	}
}
