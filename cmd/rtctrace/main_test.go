package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/obs"
	"rtcadapt/internal/session"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

// record runs one short session with the flight recorder on and writes
// its trace to path: Chrome JSON for .json, CSV otherwise. loss makes a
// different run at the same seed.
func record(t *testing.T, path string, loss float64) {
	t.Helper()
	rec := obs.NewRecorder(0)
	session.Run(session.Config{
		Duration:   2 * time.Second,
		Seed:       5,
		Content:    video.TalkingHead,
		Trace:      trace.StepDrop(2.5e6, 0.8e6, time.Second),
		LossProb:   loss,
		Controller: core.NewAdaptive(core.AdaptiveConfig{}),
		Recorder:   rec,
	})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Ext(path) == ".json" {
		err = obs.WriteChromeJSON(f, rec.Snapshot())
	} else {
		err = obs.WriteCSV(f, rec.Snapshot())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecordExportsAllFormats checks that both machine-readable exports of
// one recording (Chrome JSON and CSV) carry their format markers and read
// back as the same trace. The ASCII export is write-only; rtcsim's tests
// cover it.
func TestRecordExportsAllFormats(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	csvPath := filepath.Join(dir, "t.csv")
	record(t, jsonPath, 0)
	record(t, csvPath, 0)

	j, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bytes.TrimSpace(j), []byte("[")) {
		t.Error("json export does not start with a JSON array")
	}
	c, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(c, []byte("type,seq,at_ns,track,kind,attrs")) {
		t.Errorf("csv export missing header: %.60s", c)
	}

	// Past the first line (which names the file), inspecting either export
	// must print the same counters and timeline.
	var bodies []string
	for _, path := range []string{jsonPath, csvPath} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-inspect", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("inspect %s exit %d, stderr: %s", path, code, stderr.String())
		}
		_, body, _ := strings.Cut(stdout.String(), "\n")
		bodies = append(bodies, body)
	}
	if bodies[0] != bodies[1] {
		t.Errorf("json and csv exports inspect differently:\n%s\n---\n%s", bodies[0], bodies[1])
	}
}

func TestRecordTimelineToStdout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	record(t, path, 0)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inspect", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("inspect exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "obs timeline") || !strings.Contains(out, "cc ") {
		t.Fatalf("stdout timeline missing tracks:\n%s", out)
	}
}

func TestInspect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	record(t, path, 0)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inspect", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("inspect exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"events over", "codec.frames", "obs timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}
}

func TestDiffIdenticalRuns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.json")
	record(t, a, 0)
	// Same seed, different export format: the diff must see one trace.
	record(t, b, 0)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("diff of identical runs exit %d: %s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "traces identical") {
		t.Errorf("diff output: %s", stdout.String())
	}
}

func TestDiffDivergentRuns(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.csv")
	b := filepath.Join(dir, "b.csv")
	record(t, a, 0)
	record(t, b, 0.05)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-diff", a, b}, &stdout, &stderr); code != 1 {
		t.Fatalf("diff of divergent runs exit %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "traces diverge") {
		t.Errorf("diff output: %s", stdout.String())
	}
}

func TestBadInvocations(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csv")
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"trace flag undefined", []string{"-trace", "drop"}},
		{"tracefile flag undefined", []string{"-tracefile", missing}},
		{"loss flag undefined", []string{"-loss", "0.01"}},
		// Record-mode flags are gone with record mode (now rtcsim -record):
		// rtctrace rejects them as undefined flags.
		{"unknown controller", []string{"-controller", "psychic"}},
		{"unknown content", []string{"-content", "cats"}},
		{"no mode", nil},
		{"inspect and diff", []string{"-inspect", "-diff", "a", "b"}},
		{"inspect missing arg", []string{"-inspect"}},
		{"diff one arg", []string{"-diff", "a.csv"}},
		{"stray positional", []string{"whoops"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
			}
			if stderr.Len() == 0 {
				t.Error("no diagnostic on stderr")
			}
		})
	}
	// Reading a nonexistent trace is a runtime failure (exit 1).
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inspect", missing}, &stdout, &stderr); code != 1 {
		t.Fatalf("inspect of missing file exit %d, want 1", code)
	}
}
