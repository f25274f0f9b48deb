package simtime

import "testing"

// FuzzSchedulerOrder feeds fuzzer-chosen op streams through the
// scheduler and the sorted-slice reference model (order_test.go) and
// fails on any divergence in fire order, fire times, clock, Len, Peek,
// Pending, Canceled or Cancel results. No workload shape — near and far
// horizons, same-instant bursts, cancels, resets — may tell the heap
// apart from the model.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 255, 5, 0})
	// One of everything: near + far schedules, a tie burst, a cancel, a
	// step, a stretch of idle time, and a reset.
	f.Add([]byte{0, 3, 1, 200, 3, 40, 4, 1, 5, 0, 6, 90, 7, 0, 0, 7})
	// Far-horizon heavy: operands with high shift bits schedule hours to
	// days ahead, then drain.
	f.Add([]byte{0, 225, 1, 193, 2, 161, 0, 255, 6, 255, 5, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048] // bound per-exec work; coverage, not volume
		}
		checkOrder(t, ops)
	})
}
