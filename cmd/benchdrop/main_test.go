package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSeedRange(t *testing.T) {
	got, err := seedRange(3)
	if err != nil || !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("seedRange(3) = %v, %v; want [1 2 3]", got, err)
	}
	for _, n := range []int{0, -1} {
		if seeds, err := seedRange(n); err == nil {
			t.Errorf("seedRange(%d) = %v, want an error", n, seeds)
		}
	}
}

// runOK runs benchdrop and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d: %s", args, code, stderr.String())
	}
	return stdout.String()
}

func TestBadInvocations(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-frobnicate"}},
		{"stray positional", []string{"extra", "-exp", "figure1"}},
		{"unknown exp", []string{"-exp", "figure99"}},
		{"unknown format", []string{"-format", "xml"}},
		{"unknown grid", []string{"-exp", "frontier", "-grid", "huge"}},
		{"zero seeds", []string{"-seeds", "0"}},
		{"negative seeds", []string{"-seeds", "-1"}},
		{"non-numeric seed", []string{"-seed", "banana"}},
		{"unknown scenario", []string{"-exp", "scenarios", "-scenario", "starlink"}},
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

// TestCSVHonoursSeed: figure 1's CSV follows -seed, as its text does.
func TestCSVHonoursSeed(t *testing.T) {
	one := runOK(t, "-exp", "figure1", "-format", "csv")
	three := runOK(t, "-exp", "figure1", "-format", "csv", "-seed", "3")
	if one == three {
		t.Error("-format csv ignored -seed 3")
	}
	if again := runOK(t, "-exp", "figure1", "-format", "csv", "-seed", "1"); again != one {
		t.Error("-seed 1 is not the default figure 1 run")
	}
}

// TestCSVHonoursGrid: the frontier CSV covers the -grid it was given.
func TestCSVHonoursGrid(t *testing.T) {
	out := runOK(t, "-exp", "frontier", "-grid", "small", "-seeds", "1", "-format", "csv")
	if lines := strings.Count(out, "\n"); lines != 1+4 {
		t.Errorf("small-grid frontier CSV has %d lines, want a header and 4 cells:\n%s", lines, out)
	}
}

// TestScenariosCSV: the corpus mini-sweep has CSV output, one row per
// (scenario, controller) row of its text table.
func TestScenariosCSV(t *testing.T) {
	args := []string{"-exp", "scenarios", "-scenario", "standard,lte", "-seeds", "1", "-duration", "5s"}
	csv := runOK(t, append(args, "-format", "csv")...)
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) != 1+4 || lines[0] != "scenario,controller,p95_ms,mean_ssim,delivered_frac" {
		t.Fatalf("scenarios CSV:\n%s", csv)
	}
	text := runOK(t, args...)
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if !strings.Contains(text, f[0]) || !strings.Contains(text, f[1]) || !strings.Contains(text, f[2]) {
			t.Errorf("CSV row %q has no counterpart in the text table:\n%s", line, text)
		}
	}
}
