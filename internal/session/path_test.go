package session

import (
	"reflect"
	"testing"
	"time"

	"rtcadapt/internal/netem"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/trace"
)

// TestApplyPath pins the one mapping from a compiled scenario path to a
// session config that rtcsim, the experiments and the fleet share.
func TestApplyPath(t *testing.T) {
	tr := trace.StepDrop(2.5e6, 0.8e6, 10*time.Second)
	full := scenario.Path{
		Trace:     tr,
		Duration:  40 * time.Second,
		Loss:      0.01,
		BurstLoss: 0.02,
		PropDelay: 60 * time.Millisecond,
		Queue:     64000,
		NACK:      true,
	}
	cases := []struct {
		name string
		cfg  Config
		path scenario.Path
		want Config
	}{
		{
			name: "every field lands",
			path: full,
			want: Config{
				Trace: tr, Duration: 40 * time.Second, LossProb: 0.01,
				BurstLoss: netem.NewGilbertElliott(8, 0.02),
				PropDelay: 60 * time.Millisecond, QueueLimitBytes: 64000, NACK: true,
			},
		},
		{
			name: "NACK only turns on",
			cfg:  Config{NACK: true},
			path: scenario.Path{Trace: tr},
			want: Config{Trace: tr, NACK: true},
		},
		{
			name: "explicit duration wins",
			cfg:  Config{Duration: 5 * time.Second},
			path: scenario.Path{Trace: tr, Duration: 40 * time.Second},
			want: Config{Trace: tr, Duration: 5 * time.Second},
		},
		{
			name: "zero duration takes the path's",
			path: scenario.Path{Trace: tr, Duration: 40 * time.Second},
			want: Config{Trace: tr, Duration: 40 * time.Second},
		},
		{
			name: "path overrides the link impairments",
			cfg:  Config{LossProb: 0.5, PropDelay: time.Second, QueueLimitBytes: 1},
			path: scenario.Path{Trace: tr},
			want: Config{Trace: tr},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.cfg
			got.ApplyPath(tc.path)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ApplyPath:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}

	// A burst-loss rate is a Gilbert-Elliott process with mean burst 8:
	// the Bad state lasts 1/PBadToGood = 8 packets on average.
	var cfg Config
	cfg.ApplyPath(scenario.Path{Trace: tr, BurstLoss: 0.05})
	if cfg.BurstLoss == nil {
		t.Fatal("BurstLoss > 0 left no Gilbert-Elliott process")
	}
	if got := 1 / cfg.BurstLoss.PBadToGood; got != 8 {
		t.Errorf("mean burst length %v, want 8", got)
	}
}
