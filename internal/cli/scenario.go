package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rtcadapt/internal/netem"
	"rtcadapt/internal/scenario"
	"rtcadapt/internal/session"
)

// ResolveScenario maps a -scenario flag value to a scenario: a preset
// name from the registry, a path to a YAML/JSON scenario file, or a path
// to a "seconds,bps" capacity trace (.csv suffix, as tracegen writes),
// which becomes a trace_csv scenario named after the file. Any value
// containing a path separator or a .yaml/.yml/.json/.csv suffix, or
// naming an existing file, is treated as a file.
func ResolveScenario(arg string) (scenario.Scenario, error) {
	if arg == "" {
		return scenario.Scenario{}, fmt.Errorf("empty scenario")
	}
	if strings.HasSuffix(arg, ".csv") {
		if _, err := os.Stat(arg); err != nil {
			return scenario.Scenario{}, err
		}
		s := scenario.Scenario{Name: strings.TrimSuffix(filepath.Base(arg), ".csv"), TraceCSV: arg}
		return s, s.Validate()
	}
	if looksLikeFile(arg) {
		return scenario.ParseFile(arg)
	}
	s, err := scenario.Preset(arg)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("%w (or pass a .yaml/.json scenario file or a .csv capacity trace)", err)
	}
	return s, nil
}

// looksLikeFile distinguishes file arguments from preset names.
func looksLikeFile(arg string) bool {
	if strings.ContainsRune(arg, os.PathSeparator) {
		return true
	}
	for _, suffix := range []string{".yaml", ".yml", ".json"} {
		if strings.HasSuffix(arg, suffix) {
			return true
		}
	}
	if _, err := os.Stat(arg); err == nil {
		return true
	}
	return false
}

// ResolveScenarios resolves a comma-separated -scenario list.
func ResolveScenarios(args string) ([]scenario.Scenario, error) {
	var out []scenario.Scenario
	for _, arg := range strings.Split(args, ",") {
		arg = strings.TrimSpace(arg)
		if arg == "" {
			continue
		}
		s, err := ResolveScenario(arg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenarios in %q", args)
	}
	return out, nil
}

// ApplyScenario writes a compiled scenario path into a session config:
// the capacity trace and every link impairment the scenario pins. NACK
// only ever turns on (a -nack flag the user set stays set), and the
// session duration is set from the path only when the caller left it
// zero and the scenario has a natural span, so an explicit -duration
// flag still wins. A burst-loss rate lowers to a Gilbert-Elliott
// process with the suite's standard mean burst length of 8 packets.
func ApplyScenario(cfg *session.Config, p scenario.Path) {
	cfg.Trace = p.Trace
	cfg.LossProb = p.Loss
	cfg.PropDelay = p.PropDelay
	cfg.QueueLimitBytes = p.Queue
	if p.NACK {
		cfg.NACK = true
	}
	if p.BurstLoss > 0 {
		cfg.BurstLoss = netem.NewGilbertElliott(8, p.BurstLoss)
	}
	if cfg.Duration == 0 && p.Duration > 0 {
		cfg.Duration = p.Duration
	}
}
