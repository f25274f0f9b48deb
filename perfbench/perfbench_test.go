package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"rtcadapt/internal/core"
	"rtcadapt/internal/experiments"
	"rtcadapt/internal/session"
	"rtcadapt/internal/simtime"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the metric lists the
// benchmark prints and against the format rules for names and units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", b.Paths)
	}
	for _, a := range b.Command {
		if strings.HasPrefix(a, "/") || strings.Contains(a, "..") ||
			(strings.Contains(a, "/") && !strings.HasPrefix(a, "perfbench/")) {
			t.Errorf("command argument %q leaves the benchmark's paths", a)
		}
	}

	seen := map[string]bool{}
	var names []string
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("invalid name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, workloadNames())
	}
	check := func(kind string, got, want []metricSpec) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s differs from the metric list in metrics.go:\n got %+v\nwant %+v", kind, got, want)
		}
		for _, m := range got {
			use(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: invalid unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: better %q", m.Name, m.Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndSpecs())
	check("per_layer", b.PerLayer, perLayerSpecs())
	for _, m := range b.EndToEnd {
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s missing from end_to_end")
	}
}

// shortPlan is a two-session drop batch with 2 s sessions, for tests.
func shortPlan(t *testing.T) *plan {
	t.Helper()
	p, err := dropPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	build := p.build
	p.n = 2
	p.build = func(j int) session.Config {
		cfg := build(j)
		cfg.Duration = 2 * time.Second
		return cfg
	}
	return p
}

func TestBrokenSummaryCountsAsFailed(t *testing.T) {
	p := shortPlan(t)
	good, err := runUntraced(&worker{sched: simtime.NewScheduler()}, p, 1)
	if err != nil {
		t.Fatalf("clean session failed its checks: %v", err)
	}
	breakers := map[string]func(*session.Summary){
		"frame partition": func(s *session.Summary) { s.Report.DeliveredFrames++ },
		"link balance":    func(s *session.Summary) { s.LinkStats.Delivered = s.LinkStats.Accepted + 1 },
		"ssim":            func(s *session.Summary) { s.Report.MeanSSIM = 1.5 },
		"percentiles":     func(s *session.Summary) { s.Report.P95NetDelay = s.Report.MaxNetDelay + 1 },
	}
	for name, br := range breakers {
		s := good
		br(&s)
		if checkSummary(s) == nil {
			t.Errorf("%s: broken summary passed the checks", name)
		}
	}

	broken := func(w *worker, p *plan, j int) (session.Summary, error) {
		s, err := runUntraced(w, p, j)
		if err != nil {
			return s, err
		}
		s.Report.SkippedFrames++
		return s, checkSummary(s)
	}
	ph := runPhase(p, 0, broken, nil)
	if ph.failed != ph.sessions || ph.sessions != p.n {
		t.Errorf("broken summaries: %d of %d sessions failed, want all of %d", ph.failed, ph.sessions, p.n)
	}
	panics := func(*worker, *plan, int) (session.Summary, error) { panic("boom") }
	if ph := runPhase(p, 0, panics, nil); ph.failed != p.n {
		t.Errorf("panicking sessions: %d failed, want %d", ph.failed, p.n)
	}
}

// TestPairsShareEverythingButTheController checks that both halves of
// every pair run the same path, content and seed.
func TestPairsShareEverythingButTheController(t *testing.T) {
	for _, mk := range []func(int64) (*plan, error){dropPlan, hdLossPlan} {
		p, err := mk(3)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j+1 < p.n; j += 2 {
			native, adaptive := p.build(j), p.build(j+1)
			if _, ok := native.Controller.(*core.NativeRC); !ok || p.adaptive(j) {
				t.Fatalf("%s session %d: want the native-rc half, got %T", p.name, j, native.Controller)
			}
			if _, ok := adaptive.Controller.(*core.Adaptive); !ok || !p.adaptive(j+1) {
				t.Fatalf("%s session %d: want the adaptive half, got %T", p.name, j+1, adaptive.Controller)
			}
			native.Controller, adaptive.Controller = nil, nil
			if !reflect.DeepEqual(native, adaptive) {
				t.Fatalf("%s pair %d: halves differ beyond the controller:\n%+v\n%+v", p.name, j/2, native, adaptive)
			}
		}
		if a, b := p.build(0), p.build(2); a.Seed == b.Seed {
			t.Errorf("%s: pairs 0 and 1 share seed %d", p.name, a.Seed)
		}
	}
}

// TestTracedRunMatchesUntraced checks that the seam wrappers and the
// Peek/Step loop leave every session's output unchanged and that the
// codec and cc replays reproduce the in-situ outputs.
func TestTracedRunMatchesUntraced(t *testing.T) {
	p := shortPlan(t)
	base := runPhase(p, 0, runUntraced, nil)
	acc := &layerAcc{}
	traced := runPhase(p, 0, runTraced, acc)
	if base.failed+traced.failed > 0 {
		t.Fatalf("failures: %v %v", base.problems, traced.problems)
	}
	if base.digest != traced.digest {
		t.Fatalf("traced digest %s != untraced %s", traced.digest, base.digest)
	}
	recs := acc.records
	if len(recs) != p.n {
		t.Fatalf("recorded %d sessions, want %d", len(recs), p.n)
	}
	rp := replayAll(recs)
	if rp.codecMismatch != 0 || rp.ccMismatch != 0 {
		t.Errorf("replay mismatches: codec %d, cc %d", rp.codecMismatch, rp.ccMismatch)
	}
	for name, v := range map[string]float64{"sim": rp.simNs, "netem": rp.netemNs, "codec": rp.codecNs,
		"cc": rp.ccNs, "packetize": rp.packetizeNs, "reassemble": rp.reassembleNs, "fb": rp.fbNs} {
		if !(v > 0) {
			t.Errorf("replay cost %s = %v, want > 0", name, v)
		}
	}
}

func TestReportWrite(t *testing.T) {
	rep := &report{correct: true, attempted: 3, metrics: metricSet{}}
	for _, s := range endToEndSpecs() {
		rep.metrics[s.Name] = 1.25
	}
	var out bytes.Buffer
	if err := rep.write(&out, endToEndSpecs()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(endToEndSpecs()) {
		t.Errorf("result %+v", res)
	}

	delete(rep.metrics, "setup_s")
	out.Reset()
	if err := rep.write(&out, endToEndSpecs()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"correct":true`) {
		t.Error("a missing metric must make the run incorrect")
	}
}

func TestCheckSnapshot(t *testing.T) {
	snap := []byte("title\nrow 1\nrow 2\n")
	if err := checkSnapshot("other title\nrow 1\nrow 2\n", snap); err != nil {
		t.Errorf("first line must be ignored: %v", err)
	}
	if err := checkSnapshot("title\nrow 1\nrow 3\n", snap); err == nil {
		t.Error("a changed row passed")
	}
	if err := checkSnapshot("title\nrow 1\n", snap); err == nil {
		t.Error("a missing row passed")
	}
}

func TestCellClock(t *testing.T) {
	c := newCellClock(2)
	r := &experiments.Runner{Workers: 2, Progress: c.progress}
	c.begin()
	experiments.Map(r, 5, func(int) string { return "" }, func(int) struct{} {
		time.Sleep(5 * time.Millisecond)
		return struct{}{}
	})
	c.end()
	if c.cells != 5 || len(c.cellNs) != 5 {
		t.Fatalf("cells %d, times %d, want 5", c.cells, len(c.cellNs))
	}
	for _, ns := range c.cellNs {
		if ns < int64(4*time.Millisecond) {
			t.Errorf("cell time %v below the cell's sleep", time.Duration(ns))
		}
	}
	// Five equal cells on two workers leave one worker idle for about the
	// last cell: roughly a sixth of the capacity.
	if frac := float64(c.idleNs) / float64(c.spanNs); frac <= 0 || frac >= 0.5 {
		t.Errorf("tail idle fraction %v, want in (0, 0.5)", frac)
	}
}

func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("perfbench", "test"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	shares, samples, err := foldProfile(buf.Bytes(), "perfbench", "test")
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no profile samples on this host")
	}
	sum := 0.0
	for _, l := range profileLayers() {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["other"] < 0.5 {
		t.Errorf("the benchmark's own busy loop got share %v of other", shares["other"])
	}
	if _, _, err := foldProfile([]byte("not a profile"), "perfbench", "test"); err == nil {
		t.Error("garbage folded without error")
	}
}

//go:noinline
func spin(d time.Duration) {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	if x == 42 {
		panic(errors.New("unreachable"))
	}
}
