package stats

import (
	"math"
	"testing"
)

// refRateMeter is RateMeter as it was with re-sliced windows: the model
// the head-index version must match bit for bit.
type refRateMeter struct {
	window         float64
	times, amounts []float64
	total          float64
}

func (m *refRateMeter) add(t, amount float64) {
	m.times = append(m.times, t)
	m.amounts = append(m.amounts, amount)
	m.total += amount
	m.evict(t)
}

func (m *refRateMeter) evict(now float64) {
	cut := now - m.window
	i := 0
	for i < len(m.times) && m.times[i] < cut {
		m.total -= m.amounts[i]
		i++
	}
	m.times, m.amounts = m.times[i:], m.amounts[i:]
}

func (m *refRateMeter) rate(t float64) float64 {
	m.evict(t)
	if len(m.times) == 0 {
		return 0
	}
	span := t - m.times[0]
	if span < m.window/2 {
		span = m.window / 2
	}
	return m.total / span
}

// naiveSlope is the least-squares slope of the given points, summed in
// order: the window's oldest point first.
func naiveSlope(xs, ys []float64) (float64, bool) {
	n := len(xs)
	if n < 2 {
		return 0, false
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var num, den float64
	for i := range xs {
		dx := xs[i] - mx
		num += dx * (ys[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestLinRegMatchesNaiveWindow checks every Slope across many window
// slides against a from-scratch fit of the last window points in the
// same summation order.
func TestLinRegMatchesNaiveWindow(t *testing.T) {
	const window = 20
	r := NewLinReg(window)
	rng := NewRand(7)
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x, y := float64(i)*0.013+rng.Float64(), rng.Float64()*40-20
		r.Add(x, y)
		xs, ys = append(xs, x), append(ys, y)
		lo := max(0, len(xs)-window)
		want, wantOK := naiveSlope(xs[lo:], ys[lo:])
		got, ok := r.Slope()
		if ok != wantOK || !sameBits(got, want) || r.Len() != len(xs)-lo {
			t.Fatalf("point %d: Slope = %v,%v Len %d, want %v,%v Len %d", i, got, ok, r.Len(), want, wantOK, len(xs)-lo)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d", r.Len())
	}
}

// TestRateMeterMatchesReference drives a meter through bursts, gaps
// longer than the window and a window that grows and shrinks, checking
// every Rate against the re-slicing model bit for bit.
func TestRateMeterMatchesReference(t *testing.T) {
	m := NewRateMeter(0.5)
	ref := &refRateMeter{window: 0.5}
	rng := NewRand(11)
	now := 0.0
	for i := 0; i < 5000; i++ {
		switch {
		case i%1000 == 999:
			now += 2 // gap: the window empties
		case (i/250)%2 == 0:
			now += 0.001 // dense phase
		default:
			now += 0.02 * rng.Float64()
		}
		amount := 1000 * rng.Float64()
		m.Add(now, amount)
		ref.add(now, amount)
		probe := now + 0.3*rng.Float64()
		if got, want := m.Rate(probe), ref.rate(probe); !sameBits(got, want) {
			t.Fatalf("sample %d: Rate(%v) = %v, want %v", i, probe, got, want)
		}
	}
}

// batch returns a function calling step n times.
func batch(n int, step func()) func() {
	return func() {
		for i := 0; i < n; i++ {
			step()
		}
	}
}

// TestLinRegAddAllocBudget: a warm trendline window never allocates.
func TestLinRegAddAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	r := NewLinReg(20)
	x := 0.0
	step := func() {
		x++
		r.Add(x, math.Mod(x, 7))
		r.Slope()
	}
	for i := 0; i < 100; i++ {
		step()
	}
	// AllocsPerRun truncates to whole allocations per run, so each run
	// is a batch: a reallocation every few window lengths still shows.
	if got := testing.AllocsPerRun(10, batch(1000, step)); got != 0 {
		t.Fatalf("1000 LinReg.Add+Slope calls allocate %v times, want 0", got)
	}
}

// TestRateMeterAddAllocBudget: a warm meter at a steady sample rate
// never allocates.
func TestRateMeterAddAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed under -race")
	}
	m := NewRateMeter(0.5)
	now := 0.0
	step := func() {
		now += 0.005
		m.Add(now, 1200)
		m.Rate(now)
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if got := testing.AllocsPerRun(10, batch(1000, step)); got != 0 {
		t.Fatalf("1000 RateMeter.Add+Rate calls allocate %v times, want 0", got)
	}
}

// TestRateMeterGivesBackCapacity: after a dense phase fills a large
// window, a sparse phase shrinks the backing arrays back towards the
// window it holds (a session keeps its meter after a bandwidth drop).
func TestRateMeterGivesBackCapacity(t *testing.T) {
	m := NewRateMeter(0.5)
	now := 0.0
	for i := 0; i < 2000; i++ {
		now += 0.001 // ~500 samples in the window
		m.Add(now, 1200)
	}
	if c := cap(m.times); c < 500 {
		t.Fatalf("dense phase: cap %d, want at least the 500-sample window", c)
	}
	for i := 0; i < 200; i++ {
		now += 0.05 // ~10 samples in the window
		m.Add(now, 1200)
	}
	if n, c := len(m.times)-m.head, cap(m.times); c > 4*n+rateMeterMinCap {
		t.Fatalf("sparse phase: cap %d for a %d-sample window", c, n)
	}
}
