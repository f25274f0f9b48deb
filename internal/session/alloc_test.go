package session

import (
	"testing"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// TestSessionAllocBudget caps the allocations of one whole session shaped
// like the hd-loss benchmark workload: 12 Mbps stepping to 6 Mbps, 0.5%
// random loss, NACK and FEC in groups of 4, so every loss-recovery
// structure (retransmission store, NACK generator, FEC encoder and
// decoder, reassembler) carries its real per-packet load. The count covers
// config construction, set-up and ~6k packets; it measured 726 when the
// loss-recovery bookkeeping moved onto window rings (from ~11.9k with
// hash maps), and the cap leaves headroom for incidental set-up changes
// while still catching any per-packet allocation.
func TestSessionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	const budget = 1000
	run := func() {
		Run(Config{
			Duration:     10 * time.Second,
			Seed:         100_001,
			Content:      video.Sports,
			Trace:        trace.StepDrop(12e6, 6e6, 4*time.Second),
			InitialRate:  8e6,
			LossProb:     0.005,
			NACK:         true,
			FECGroupSize: 4,
			Controller:   core.NewNativeRC(),
		})
	}
	if got := testing.AllocsPerRun(2, run); got > budget {
		t.Fatalf("one hd-loss-shaped session allocates %v times, budget %d", got, budget)
	}
}
