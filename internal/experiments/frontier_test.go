package experiments

import (
	"strings"
	"testing"
	"time"

	"rtcadapt/internal/scenario"
)

// smallGrid is a 2×2 magnitude×duration grid at one (loss, rtt) — small
// enough for unit tests, large enough to exercise panel layout.
func smallGrid(t *testing.T) scenario.Grid {
	t.Helper()
	g, err := FrontierGrid("small")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFrontierShape(t *testing.T) {
	res, err := (&Runner{Workers: 4}).Frontier(smallGrid(t), []int64{1})
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(res.Cells))
	}
	if len(res.Magnitudes) != 2 || len(res.Durations) != 2 || len(res.RTTs) != 1 || len(res.Losses) != 1 {
		t.Errorf("axes: %d mags %d durs %d rtts %d losses",
			len(res.Magnitudes), len(res.Durations), len(res.RTTs), len(res.Losses))
	}
	for _, c := range res.Cells {
		if c.BaselineP95 <= 0 || c.AdaptiveP95 <= 0 {
			t.Errorf("cell %q has empty window: baseline %v adaptive %v",
				c.Point.Scenario.Name, c.BaselineP95, c.AdaptiveP95)
		}
	}
}

// TestFrontierParallelDeterminism pins the acceptance criterion: the
// rendered frontier is byte-identical across worker counts and repeated
// same-seed runs.
func TestFrontierParallelDeterminism(t *testing.T) {
	g := smallGrid(t)
	seeds := []int64{1}
	seq, err := (&Runner{Workers: 1}).Frontier(g, seeds)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := (&Runner{Workers: 4}).Frontier(g, seeds)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if RenderFrontier(seq) != RenderFrontier(par) {
		t.Error("frontier differs between 1 and 4 workers")
	}
	again, err := (&Runner{Workers: 4}).Frontier(g, seeds)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if RenderFrontier(par) != RenderFrontier(again) {
		t.Error("frontier differs across repeated same-seed runs")
	}
}

func TestRenderFrontier(t *testing.T) {
	res, err := (&Runner{Workers: 4}).Frontier(smallGrid(t), []int64{1})
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	out := RenderFrontier(res)
	for _, want := range []string{"win margin", "loss=0% rtt=50ms", "-50%", "-80%", "1s", "3s", "scale:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFrontierCSV runs the registry's frontier entry on the small grid:
// one CSV row per grid cell, matching the rendered sweep.
func TestFrontierCSV(t *testing.T) {
	exps, err := Select("frontier")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exps[0].Run(&Runner{Workers: 4}, Options{Seeds: []int64{1}, Grid: smallGrid(t)})
	if err != nil {
		t.Fatalf("frontier: %v", err)
	}
	if len(out.CSV) != 1+4 {
		t.Fatalf("got %d CSV rows, want a header and 4 cells", len(out.CSV))
	}
	res, err := (&Runner{Workers: 4}).Frontier(smallGrid(t), []int64{1})
	if err != nil {
		t.Fatalf("Frontier: %v", err)
	}
	if out.Text != RenderFrontier(res) {
		t.Error("frontier entry's text differs from RenderFrontier on the same grid")
	}
}

func TestScenarioTableDeterminism(t *testing.T) {
	scs := []scenario.Scenario{
		scenario.MustPreset("standard"),
		scenario.MustPreset("lte"),
	}
	kinds := []ControllerKind{KindNative, KindAdaptive}
	seeds := []int64{1}
	dur := 10 * time.Second
	seq, err := (&Runner{Workers: 1}).ScenarioTable(scs, kinds, seeds, dur)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := (&Runner{Workers: 4}).ScenarioTable(scs, kinds, seeds, dur)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if RenderScenarioTable(seq) != RenderScenarioTable(par) {
		t.Error("scenario table differs between 1 and 4 workers")
	}
	if len(seq) != len(scs)*len(kinds) {
		t.Fatalf("got %d rows, want %d", len(seq), len(scs)*len(kinds))
	}
	for _, row := range seq {
		if row.P95 <= 0 || row.MeanSSIM <= 0 {
			t.Errorf("row %+v has empty metrics", row)
		}
	}
}

func TestScenarioTableRejectsInvalid(t *testing.T) {
	_, err := (&Runner{Workers: 1}).ScenarioTable(
		[]scenario.Scenario{{Name: "bad"}},
		[]ControllerKind{KindNative}, []int64{1}, time.Second)
	if err == nil {
		t.Fatal("ScenarioTable accepted an invalid scenario")
	}
}
