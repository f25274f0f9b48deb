package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestChartRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chart", "rates", "-duration", "2s"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "control plane, adaptive controller") {
		t.Errorf("rates chart missing its title:\n%s", stdout.String())
	}
}

// TestBadInvocations: every malformed flag combination must print a
// diagnostic to stderr and exit 2 — never panic, never run a session.
func TestBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-frobnicate"}},
		{"unknown chart", []string{"-chart", "pie"}},
		{"unknown controller", []string{"-controller", "psychic"}},
		{"negative duration", []string{"-duration", "-5s"}},
		{"zero capacity before the drop", []string{"-before", "0", "-duration", "2s"}},
		{"NaN capacity after the drop", []string{"-after", "NaN", "-duration", "2s"}},
		{"drop at zero", []string{"-dropat", "0", "-duration", "2s"}},
		{"negative drop instant", []string{"-dropat", "-1s", "-duration", "2s"}},
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
}
