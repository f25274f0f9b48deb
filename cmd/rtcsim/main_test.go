package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtcadapt/internal/obs"
)

// runOK runs rtcsim and fails the test on a nonzero exit; it returns
// stdout and stderr.
func runOK(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run(%v) = %d, stderr: %s", args, code, errOut.String())
	}
	return out.String(), errOut.String()
}

// writeFile writes a fixture into dir and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readTrace loads a recording through the format-sniffing reader.
func readTrace(t *testing.T, path string) *obs.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return tr
}

func TestSummaryRuns(t *testing.T) {
	stdout, _ := runOK(t, "-duration", "2s", "-scenario", "constant")
	for _, want := range []string{"controller: adaptive", "frames:", "latency"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q:\n%s", want, stdout)
		}
	}
}

// TestScenarioFlag pins the -scenario path: a preset pins the path and
// its natural span unless -duration is given, and a scenario file works
// the same way.
func TestScenarioFlag(t *testing.T) {
	// "standard" spans 30s naturally; an explicit -duration 2s must win.
	stdout, _ := runOK(t, "-scenario", "standard", "-duration", "2s")
	if !strings.Contains(stdout, "frames: 61") {
		t.Errorf("-duration 2s did not bound the session:\n%s", stdout)
	}

	file := writeFile(t, t.TempDir(), "path.yaml",
		"name: test-drop\nphases:\n  - duration: 1s\n    capacity: 2Mbps\n  - duration: 1s\n    capacity: 800kbps\n")
	// No -duration: the file's 2s natural span decides.
	stdout, _ = runOK(t, "-scenario", file)
	if !strings.Contains(stdout, "frames: 61") {
		t.Errorf("scenario file's natural span not used:\n%s", stdout)
	}
}

// TestRecordExportsAllFormats: -record picks the export format from the
// file extension.
func TestRecordExportsAllFormats(t *testing.T) {
	dir := t.TempDir()
	checks := []struct {
		name, format string
		want         []string
	}{
		{"t.json", "chrome", []string{"["}},
		{"t.csv", "csv", []string{"type,seq,at_ns,track,kind,attrs"}},
		{"t.txt", "ascii", []string{"obs timeline", "cc "}},
	}
	for _, c := range checks {
		path := filepath.Join(dir, c.name)
		_, stderr := runOK(t, "-duration", "2s", "-record", path)
		if !strings.Contains(stderr, "wrote "+path+" ("+c.format+")") {
			t.Errorf("%s: stderr does not report the %s export: %s", c.name, c.format, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range c.want {
			if !bytes.Contains(data, []byte(want)) {
				t.Errorf("%s export missing %q: %.60s", c.format, want, data)
			}
		}
	}
}

// TestRecordLeavesStdoutUnchanged: recording is an observer; the
// session's output must not move by a byte.
func TestRecordLeavesStdoutUnchanged(t *testing.T) {
	dir := t.TempDir()
	for _, out := range []string{"summary", "timeline"} {
		plain, _ := runOK(t, "-duration", "3s", "-out", out)
		recorded, _ := runOK(t, "-duration", "3s", "-out", out, "-record", filepath.Join(dir, out+".csv"))
		if plain != recorded {
			t.Errorf("-out %s: stdout differs with -record:\n%s\nvs\n%s", out, plain, recorded)
		}
	}
}

// TestRecordDeterministic: two same-seed recordings are one trace, even
// across export formats, and a different seed or a lossy path diverges.
func TestRecordDeterministic(t *testing.T) {
	dir := t.TempDir()
	record := func(name string, extra ...string) *obs.Trace {
		path := filepath.Join(dir, name)
		runOK(t, append([]string{"-duration", "2s", "-seed", "5", "-record", path}, extra...)...)
		return readTrace(t, path)
	}
	a := record("a.csv")
	if d := obs.Diff(a, record("b.json")); d != nil {
		t.Errorf("same-seed recordings diverge: %s", d)
	}
	if obs.Diff(a, record("seed.csv", "-seed", "6")) == nil {
		t.Error("recordings at different seeds are identical")
	}
	lossy := writeFile(t, dir, "lossy.yaml",
		"name: lossy\nloss: 0.05\nphases:\n  - duration: 10s\n    capacity: 2.5Mbps\n  - duration: 20s\n    capacity: 800kbps\n")
	if obs.Diff(a, record("lossy.csv", "-scenario", lossy)) == nil {
		t.Error("recording on a lossy path is identical to the loss-free one")
	}
}

// TestBadInvocations: every malformed flag combination must print a
// diagnostic to stderr and exit nonzero — never panic, never run the
// session.
func TestBadInvocations(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-trace.csv")
	scenarioFile := func(name, doc string) string { return writeFile(t, dir, name+".yaml", doc) }
	phases := "phases:\n  - duration: 5s\n    capacity: 2Mbps\n"
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-frobnicate"}},
		{"trace flag undefined", []string{"-trace", "drop"}},
		{"tracefile flag undefined", []string{"-tracefile", missing}},
		{"loss flag undefined", []string{"-loss", "0.01"}},
		{"unknown trace kind", []string{"-scenario", scenarioFile("kind", "name: k\nmodel:\n  kind: carrier-pigeon\n")}},
		{"unknown scenario", []string{"-scenario", "starlink"}},
		{"missing scenario file", []string{"-scenario", missing + ".yaml"}},
		{"missing trace file", []string{"-scenario", missing}},
		{"unknown controller", []string{"-controller", "psychic"}},
		{"unknown estimator", []string{"-estimator", "astrology"}},
		{"unknown content", []string{"-content", "cats"}},
		{"unknown out kind", []string{"-out", "hologram"}},
		{"loss above one", []string{"-scenario", scenarioFile("above", "name: a\nloss: 2\n"+phases)}},
		{"negative loss", []string{"-scenario", scenarioFile("negative", "name: n\nloss: -0.1\n"+phases)}},
		{"feedback loss above one", []string{"-feedbackloss", "1.5"}},
		{"negative duration", []string{"-duration", "-5s"}},
		{"negative fec group", []string{"-fec", "-3"}},
		{"oversized temporal layers", []string{"-tl", "3"}},
		{"non-numeric seed", []string{"-seed", "banana"}},
		{"stray positional", []string{"extra-arg"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("run(%v) = %d, want 2", tc.args, code)
			}
			if stderr.Len() == 0 {
				t.Errorf("run(%v): no diagnostic on stderr", tc.args)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%v): wrote to stdout despite failing: %s", tc.args, stdout.String())
			}
		})
	}
	// An unwritable recording is a runtime failure (exit 1), reported
	// before any output.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-duration", "1s", "-record", filepath.Join(dir, "no-dir", "t.csv")}, &stdout, &stderr); code != 1 {
		t.Fatalf("unwritable -record exit %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unwritable -record wrote to stdout: %s", stdout.String())
	}
}
