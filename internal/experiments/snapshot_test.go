package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestFigure1MatchesSnapshot pins the rendered figure-1 chart to the
// committed results snapshot: the motivating scenario must reproduce
// byte-for-byte across refactors (and with the flight recorder wired
// through the pipeline — see session.TestRecorderOffIsIdentical).
func TestFigure1MatchesSnapshot(t *testing.T) {
	data, err := os.ReadFile("../../docs/results_snapshot.txt")
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(string(data), "Table 1:")
	if idx < 0 {
		t.Fatal("snapshot missing the Table 1 delimiter")
	}
	want := strings.TrimRight(string(data[:idx]), "\n")
	got := strings.TrimRight(RenderFigure1(Figure1(1)), "\n")
	if got != want {
		t.Fatalf("figure 1 diverged from docs/results_snapshot.txt\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestHeapMatchesSnapshot pins the scheduler to recorded truth through
// the Runner at one and at two workers: figure 1 must equal the
// committed snapshot whether its two sessions run back to back or side
// by side.
func TestHeapMatchesSnapshot(t *testing.T) {
	data, err := os.ReadFile("../../docs/results_snapshot.txt")
	if err != nil {
		t.Fatal(err)
	}
	idx := strings.Index(string(data), "Table 1:")
	if idx < 0 {
		t.Fatal("snapshot missing the Table 1 delimiter")
	}
	want := strings.TrimRight(string(data[:idx]), "\n")
	for _, workers := range []int{1, 2} {
		r := &Runner{Workers: workers}
		got := strings.TrimRight(RenderFigure1(r.Figure1(1)), "\n")
		if got != want {
			t.Errorf("figure 1 at %d workers diverged from docs/results_snapshot.txt", workers)
		}
	}
}
