package experiments

import (
	"os"
	"strings"
	"sync"
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
	got := strings.TrimRight(RenderFigure1(suite.Figure1(1)), "\n")
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

// suiteCells is the session count of each paper experiment at the
// default five seeds: 777 in all. perfbench counts cells through
// Progress, so a refactor must keep every experiment's count.
var suiteCells = map[string]int{
	"figure1": 2, "table1": 120, "table2": 120, "figure2": 80, "figure3": 20,
	"table3": 70, "figure4": 120, "figure5": 140, "figure6": 40, "figure7": 15,
	"figure8": 20, "figure9": 10, "figure10": 20,
}

// TestSuiteMatchesSnapshot pins every paper render to the committed
// results snapshot: the registry's paper entries at the default seeds on
// a parallel runner must print what `benchdrop -exp all` committed,
// minus line 1, in the same cell counts.
func TestSuiteMatchesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper suite")
	}
	data, err := os.ReadFile("../../docs/results_snapshot.txt")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	r := &Runner{Workers: 4, Progress: func(done, total int, label string) {
		mu.Lock()
		calls++
		mu.Unlock()
	}}
	exps, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range exps {
		calls = 0
		out, err := e.Run(r, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if calls != suiteCells[e.ID] {
			t.Errorf("%s ran %d cells, want %d", e.ID, calls, suiteCells[e.ID])
		}
		b.WriteString(out.Text + "\n")
	}
	if len(exps) != len(suiteCells) {
		t.Errorf("\"all\" has %d experiments, want %d", len(exps), len(suiteCells))
	}
	_, want, _ := strings.Cut(string(data), "\n")
	_, got, _ := strings.Cut(b.String(), "\n")
	if got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("suite diverged from docs/results_snapshot.txt at line %d:\n got %q\nwant %q", i+2, gl[i], wl[i])
			}
		}
		t.Fatalf("suite has %d lines after line 1, snapshot %d", len(gl), len(wl))
	}
}
