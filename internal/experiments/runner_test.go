package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestParallelMatchesSequential is the tentpole guarantee: the worker pool
// merges cells in canonical order, so rendered output is byte-identical to
// a fully sequential run no matter how the goroutines interleave.
func TestParallelMatchesSequential(t *testing.T) {
	seq := &Runner{Workers: 1}
	par := &Runner{Workers: 8}

	if got, want := RenderFigure3(par.Figure3(quickSeeds)), RenderFigure3(seq.Figure3(quickSeeds)); got != want {
		t.Errorf("figure3: parallel output diverges from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", got, want)
	}

	exps, err := Select("table1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := exps[0].Run(seq, Options{Seeds: quickSeeds})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exps[0].Run(par, Options{Seeds: quickSeeds})
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text || !reflect.DeepEqual(got.CSV, want.CSV) {
		t.Errorf("table1: parallel output diverges from sequential:\n--- parallel ---\n%s%v\n--- sequential ---\n%s%v",
			got.Text, got.CSV, want.Text, want.CSV)
	}
}

// TestRunnerProgress checks the progress callback fires once per cell with
// a monotonically increasing done count ending at total.
func TestRunnerProgress(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	lastDone := 0
	r := &Runner{
		Workers: 4,
		Progress: func(done, total int, label string) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done != lastDone+1 {
				t.Errorf("done jumped %d -> %d", lastDone, done)
			}
			lastDone = done
			if total != len(Kinds())*len(quickSeeds) {
				t.Errorf("total = %d", total)
			}
			if label == "" {
				t.Error("empty progress label")
			}
		},
	}
	r.Figure3(quickSeeds)
	want := len(Kinds()) * len(quickSeeds)
	if calls != want {
		t.Errorf("progress fired %d times, want %d", calls, want)
	}
}

// TestDefaultSeedsIsACopy guards the fix for the old mutable package-level
// slice: mutating one call's result must not leak into the next.
func TestDefaultSeedsIsACopy(t *testing.T) {
	a := DefaultSeeds()
	for i := range a {
		a[i] = -1
	}
	b := DefaultSeeds()
	if fmt.Sprint(b) != fmt.Sprint([]int64{1, 2, 3, 4, 5}) {
		t.Fatalf("DefaultSeeds after caller mutation = %v", b)
	}
}

// TestNilRunnerWrappers checks that a nil *Runner is a usable default
// runner (GOMAXPROCS workers, no progress reporting).
func TestNilRunnerWrappers(t *testing.T) {
	var r *Runner
	series := r.Figure3(quickSeeds)
	if len(series) == 0 {
		t.Fatal("nil-runner Figure3 returned no series")
	}
	for _, s := range series {
		if len(s.DelaysMs) != len(s.Fractions) {
			t.Errorf("%s: CDF arms differ: %d vs %d", s.Kind, len(s.DelaysMs), len(s.Fractions))
		}
	}
}
