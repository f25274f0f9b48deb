package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rtcadapt/internal/experiments"
)

// snapshotPath is the committed output of `benchdrop -exp all` at the
// default seeds, relative to the checkout root.
const snapshotPath = "docs/results_snapshot.txt"

// runSuite renders the 13 tables and figures on r exactly as
// `benchdrop -exp all` prints them, in the same order.
func runSuite(r *experiments.Runner, seed int64, clock *cellClock) string {
	seeds := paperSeeds(seed)
	var b strings.Builder
	for _, render := range []func() string{
		func() string { return experiments.RenderFigure1(r.Figure1(seed)) },
		func() string { return experiments.RenderTable1(r.Table1(seeds)) },
		func() string { return experiments.RenderTable2(r.Table2(seeds)) },
		func() string { return experiments.RenderFigure2(r.Figure2(seeds)) },
		func() string { return experiments.RenderFigure3(r.Figure3(seeds)) },
		func() string { return experiments.RenderTable3(r.Table3(seeds)) },
		func() string { return experiments.RenderFigure4(r.Figure4(seeds)) },
		func() string { return experiments.RenderFigure5(r.Figure5(seeds)) },
		func() string { return experiments.RenderFigure6(r.Figure6(seeds)) },
		func() string { return experiments.RenderFigure7(r.Figure7(seeds)) },
		func() string { return experiments.RenderFigure8(r.Figure8(seeds)) },
		func() string { return experiments.RenderFigure9(r.Figure9(seeds)) },
		func() string { return experiments.RenderFigure10(r.Figure10(seeds)) },
	} {
		clock.begin()
		b.WriteString(render())
		b.WriteString("\n")
		clock.end()
	}
	return b.String()
}

// checkSnapshot compares the suite's text with the committed snapshot,
// every line but the first.
func checkSnapshot(text string, snapshot []byte) error {
	got := strings.SplitAfter(text, "\n")
	want := strings.SplitAfter(string(snapshot), "\n")
	if len(got) != len(want) {
		return fmt.Errorf("suite output has %d lines, snapshot %d", len(got), len(want))
	}
	for i := 1; i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("suite output differs from %s at line %d: %q, want %q",
				snapshotPath, i+1, strings.TrimSpace(got[i]), strings.TrimSpace(want[i]))
		}
	}
	return nil
}

// suiteRuns is the outcome of running the suite repeatedly.
type suiteRuns struct {
	runs, cells, failedCells int
	wall                     time.Duration
	res                      resources
	mon                      *monitor
	clock                    *cellClock
	first                    string
	digest                   string
	problems                 []string
}

// runSuites repeats the paper suite until budget has elapsed (at least
// once). At seed 1 every run must match the snapshot; at every seed all
// runs must render the same text. A failing run counts all its cells as
// failed.
func runSuites(seed int64, workers int, budget time.Duration, snapshot []byte) *suiteRuns {
	sr := &suiteRuns{clock: newCellClock(workers)}
	r := &experiments.Runner{Workers: workers, Progress: sr.clock.progress}
	sr.mon = startMonitor()
	before := readResources()
	start := time.Now()
	for sr.runs == 0 || time.Since(start) < budget {
		cells0 := sr.clock.cells
		out, err := safeSuite(func() string { return runSuite(r, seed, sr.clock) })
		cells := sr.clock.cells - cells0
		sr.cells += cells
		sr.runs++
		if err == nil {
			if sr.runs == 1 {
				sr.first = out
			} else if out != sr.first {
				err = fmt.Errorf("suite run %d rendered different text from run 1", sr.runs)
			}
		}
		if err == nil && seed == 1 {
			err = checkSnapshot(out, snapshot)
		}
		if err != nil {
			sr.failedCells += cells
			sr.problems = append(sr.problems, err.Error())
		}
	}
	sr.wall = time.Since(start)
	sr.res = readResources().since(before)
	sr.mon.stop()
	sum := sha256.Sum256([]byte(sr.first))
	sr.digest = hex.EncodeToString(sum[:])[:16]
	return sr
}

func safeSuite(fn func() string) (out string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("suite panicked: %v", r)
		}
	}()
	return fn(), nil
}

func readSnapshot() ([]byte, error) {
	b, err := os.ReadFile(snapshotPath)
	if err != nil {
		return nil, fmt.Errorf("paper suite needs the results snapshot: %w", err)
	}
	if len(bytes.TrimSpace(b)) == 0 {
		return nil, fmt.Errorf("%s is empty", snapshotPath)
	}
	return b, nil
}

// cellClock turns the runner's progress callbacks into per-cell host
// times and the idle worker time in each experiment's parallel tail.
// Workers take their next cell as soon as they report one, so a cell ran
// from its worker's previous report (or the experiment's start) to its
// own report; once the cells run out, a worker idles from its last report
// to the end of the experiment. The runner serializes progress calls, so
// no lock is needed.
type cellClock struct {
	workers  int
	cells    int
	cellNs   []int64
	idleNs   int64
	spanNs   int64
	expStart time.Time
	last     map[uint64]time.Time
	lastEnd  time.Time
}

func newCellClock(workers int) *cellClock {
	return &cellClock{workers: workers, last: map[uint64]time.Time{}}
}

func (c *cellClock) begin() {
	c.expStart = time.Now()
	c.lastEnd = c.expStart
	clear(c.last)
}

func (c *cellClock) progress(done, total int, _ string) {
	now := time.Now()
	id := goroutineID()
	start, ok := c.last[id]
	if !ok {
		start = c.expStart
	}
	c.cellNs = append(c.cellNs, now.Sub(start).Nanoseconds())
	c.last[id] = now
	c.lastEnd = now
	c.cells++
}

// end closes an experiment: every worker slot that is not busy at the
// last report was idle from its own last report (or the start, for slots
// that never ran a cell) to the end.
func (c *cellClock) end() {
	if len(c.last) == 0 {
		return // the experiment ran no pooled cells
	}
	end := c.lastEnd
	span := end.Sub(c.expStart).Nanoseconds()
	c.spanNs += int64(c.workers) * span
	for _, t := range c.last {
		c.idleNs += end.Sub(t).Nanoseconds()
	}
	if unused := c.workers - len(c.last); unused > 0 {
		c.idleNs += int64(unused) * span
	}
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 18 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := strings.TrimPrefix(string(buf[:n]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(s, 10, 64)
	return id
}
