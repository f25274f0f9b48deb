package main

import (
	"fmt"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/experiments"
	"rtcadapt/internal/fleet"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// sessionDuration is the virtual length of every drop and hd-loss session.
const sessionDuration = 10 * time.Second

// Batch sizes: each run repeats one fixed batch of sessions, so the sim
// metrics and the digest cover the same sessions on every run of a seed.
// The batches are large enough that their means move little between
// seeds (the sim metrics are averages over the batch).
const (
	dropPairs   = 256
	hdLossPairs = 256
)

// plan is a fixed, seeded batch of sessions. Session j of the batch is
// the native-rc half of pair j/2 when j is even and the adaptive half
// when j is odd; both halves of a pair share path, content and seed.
type plan struct {
	name string
	n    int
	// build returns a fresh config for session j (controllers are
	// stateful and single-use, so every run builds its own).
	build func(j int) session.Config
	// adaptive reports whether session j runs the paper's controller.
	adaptive func(j int) bool
}

// pairedBuild turns a per-pair adaptive config function into the batch's
// session function: the native half swaps only the controller.
func pairedBuild(pair func(i int) session.Config) func(j int) session.Config {
	return func(j int) session.Config {
		cfg := pair(j / 2)
		if j%2 == 0 {
			cfg.Controller = core.NewNativeRC()
		}
		return cfg
	}
}

func oddIsAdaptive(j int) bool { return j%2 == 1 }

// pairSeed derives pair i's session seed from the run seed. Distinct run
// seeds give disjoint session seeds for any batch below 100k pairs.
func pairSeed(seed int64, i int) int64 { return seed*100_000 + int64(i) }

// dropPlan is the fleet's drop population (2.5 Mbps stepping to 1.8, 1.5,
// 1.0 or 0.5 Mbps at a third of the session, talking-head and gaming
// content, GCC), each path run as a native-rc/adaptive pair.
func dropPlan(seed int64) (*plan, error) {
	build, err := fleet.ScenarioBuild("drop", sessionDuration)
	if err != nil {
		return nil, fmt.Errorf("drop population: %w", err)
	}
	return &plan{
		name:     "drop",
		n:        2 * dropPairs,
		build:    pairedBuild(func(i int) session.Config { return build(i, pairSeed(seed, i)) }),
		adaptive: oddIsAdaptive,
	}, nil
}

// hdLossConfig is pair i of the hd-loss workload: sports content on a
// 12 Mbps link that steps to 6 Mbps at 4 s, starting at 8 Mbps, with 0.5%
// random loss and NACK on, and FEC (groups of 4) on every other pair.
func hdLossConfig(seed int64, i int) session.Config {
	cfg := session.Config{
		Duration:    sessionDuration,
		Seed:        pairSeed(seed, i),
		Content:     video.Sports,
		Trace:       trace.StepDrop(12e6, 6e6, 4*time.Second),
		InitialRate: 8e6,
		LossProb:    0.005,
		NACK:        true,
		Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
	}
	if i%2 == 1 {
		cfg.FECGroupSize = 4
	}
	return cfg
}

func hdLossPlan(seed int64) (*plan, error) {
	return &plan{
		name:     "hd-loss",
		n:        2 * hdLossPairs,
		build:    pairedBuild(func(i int) session.Config { return hdLossConfig(seed, i) }),
		adaptive: oddIsAdaptive,
	}, nil
}

// paperSeeds is the seed list the paper suite averages over at run seed
// s: benchdrop's default list (1..5) at s = 1.
func paperSeeds(seed int64) []int64 {
	out := make([]int64, 5)
	for i := range out {
		out[i] = seed + int64(i)
	}
	return out
}

// table1Plan rebuilds the Table 1 cells (drop matrix x seeds x
// {native-rc, adaptive}) from the experiment package's exported drop
// matrix, the same way the experiment builds them. The paper-suite
// workload traces these sessions: the suite itself builds its cells
// internally, so they cannot be wrapped from outside.
func table1Plan(seed int64) *plan {
	matrix := experiments.DropMatrix()
	seeds := paperSeeds(seed)
	return &plan{
		name: "table1-cells",
		n:    2 * len(matrix) * len(seeds),
		build: pairedBuild(func(i int) session.Config {
			sc := matrix[i/len(seeds)]
			return session.Config{
				Duration:    sc.DropAt + 20*time.Second,
				Seed:        seeds[i%len(seeds)],
				Content:     sc.Content,
				Trace:       trace.StepDrop(sc.Before, sc.After, sc.DropAt),
				InitialRate: 1e6,
				Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
			}
		}),
		adaptive: oddIsAdaptive,
	}
}
