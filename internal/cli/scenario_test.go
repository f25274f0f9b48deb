package cli

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"rtcadapt/internal/scenario"
	"rtcadapt/internal/trace"
)

// TestResolveScenarioCSV: a .csv argument is a capacity trace that
// compiles to the same breakpoints, with its last breakpoint as the
// natural span; a missing file is an error at resolution.
func TestResolveScenarioCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drop.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.StepDrop(2e6, 1e6, time.Second).WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := ResolveScenario(path)
	if err != nil {
		t.Fatalf("ResolveScenario(%q): %v", path, err)
	}
	if sc.TraceCSV != path || sc.Name != "drop" {
		t.Errorf("resolved %+v, want a trace_csv scenario named drop", sc)
	}
	p, err := sc.Compile(scenario.CompileConfig{Seed: 1, Duration: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if bps, _ := p.Trace.RateAt(2 * time.Second); bps != 1e6 {
		t.Errorf("rate after the drop = %v, want 1e6", bps)
	}
	if p.Duration != time.Second {
		t.Errorf("natural span = %v, want the last breakpoint (1s)", p.Duration)
	}
	if _, err := ResolveScenario(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing .csv accepted")
	}
	if _, err := ResolveScenario("missing.csv"); err == nil {
		t.Error("missing bare .csv name accepted")
	}
}
