package experiments

import (
	"fmt"
	"runtime"
	"sync"
)

// Runner executes an experiment's cells — every (scenario, controller,
// seed) combination — on a bounded worker pool. Sessions are pure
// functions of (config, seed), so cells can run in any order on any
// number of goroutines; the runner merges results keyed by cell index
// (never by completion order), which makes parallel output byte-identical
// to a sequential run.
//
// The zero value, and a nil *Runner, run on GOMAXPROCS workers with no
// progress reporting; Runner{Workers: 1} reproduces the fully sequential
// path. A Runner is stateless configuration and may be reused across
// experiments and goroutines.
type Runner struct {
	// Workers bounds the number of concurrently running sessions.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after each finished cell with
	// the number of cells completed so far, the cell count of the
	// current experiment, and a human-readable cell label. Calls are
	// serialized (never concurrent) but, under parallelism, arrive in
	// completion order, not cell order.
	Progress func(done, total int, label string)
}

// workers resolves the effective pool size.
func (r *Runner) workers() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Map evaluates fn(i) for every index in [0, n) on the runner's worker
// pool and returns the results indexed by i. Every experiment's cells
// and the fleet runner's shards go through it: results land in slots
// keyed by index, never by completion order, so aggregation in canonical
// order is byte-identical at any worker count. label(i) names unit i for
// progress reporting; it is only invoked when the runner has a Progress
// callback, so it may be nil otherwise.
func Map[T any](r *Runner, n int, label func(int) string, fn func(int) T) []T {
	out := make([]T, n)
	workers := r.workers()
	if workers > n {
		workers = n
	}

	var mu sync.Mutex
	done := 0
	report := func(i int) {
		if r == nil || r.Progress == nil {
			return
		}
		mu.Lock()
		done++
		r.Progress(done, n, label(i))
		mu.Unlock()
	}

	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
			report(i)
		}
		return out
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = fn(i)
				report(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// orDefault returns seeds, or DefaultSeeds when seeds is empty.
func orDefault(seeds []int64) []int64 {
	if len(seeds) == 0 {
		return DefaultSeeds()
	}
	return seeds
}

// seedGrid is the shape of every experiment: one session per (row, seed)
// cell, rows outermost and seeds innermost, run on the runner's pool.
// It returns each row's results in seed order, so every experiment
// reduces a row by summing over its seeds in the same order at any
// worker count. Empty seeds mean DefaultSeeds; cell labels read
// "<label(row)> seed=N".
func seedGrid[R, T any](r *Runner, rows []R, seeds []int64, label func(R) string, run func(R, int64) T) [][]T {
	seeds = orDefault(seeds)
	n := len(seeds)
	flat := Map(r, len(rows)*n, func(i int) string {
		return fmt.Sprintf("%s seed=%d", label(rows[i/n]), seeds[i%n])
	}, func(i int) T {
		return run(rows[i/n], seeds[i%n])
	})
	out := make([][]T, len(rows))
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out
}

// pair is one row of a two-factor experiment.
type pair[A, B any] struct {
	a A
	b B
}

// cross lists every (a, b) combination with as outermost: the row order
// of a two-factor experiment.
func cross[A, B any](as []A, bs []B) []pair[A, B] {
	rows := make([]pair[A, B], 0, len(as)*len(bs))
	for _, a := range as {
		for _, b := range bs {
			rows = append(rows, pair[A, B]{a, b})
		}
	}
	return rows
}
