package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateAndInspect: a generated trace reads back through -inspect.
func TestGenerateAndInspect(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kind", "lte", "-duration", "5s"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	path := filepath.Join(t.TempDir(), "lte.csv")
	if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-inspect", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("inspect exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "breakpoints, span") {
		t.Errorf("inspect output: %s", stdout.String())
	}
}

// TestBadInvocations: every malformed flag value must print a diagnostic
// to stderr and exit 2 — never panic, never write a trace.
func TestBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-frobnicate"}},
		{"unknown kind", []string{"-kind", "carrier-pigeon"}},
		{"negative oscillating duration", []string{"-kind", "oscillating", "-duration", "-5s"}},
		{"zero lte duration", []string{"-kind", "lte", "-duration", "0"}},
		{"zero mean", []string{"-kind", "const", "-mean", "0"}},
		{"infinite capacity before the drop", []string{"-kind", "drop", "-before", "+Inf"}},
		{"NaN capacity after the drop", []string{"-kind", "drop", "-after", "NaN"}},
		{"drop at zero", []string{"-kind", "drop", "-dropat", "0"}},
		{"stray positional", []string{"extra-arg"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
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
	// Inspecting a nonexistent trace is a runtime failure (exit 1).
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-inspect", filepath.Join(t.TempDir(), "missing.csv")}, &stdout, &stderr); code != 1 {
		t.Fatalf("inspect of missing file exit %d, want 1", code)
	}
}
