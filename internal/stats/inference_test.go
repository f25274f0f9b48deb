package stats

import (
	"math"
	"testing"
)

func TestMeanStd(t *testing.T) {
	m, s := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v", m)
	}
	// Sample (Bessel) stddev of this set is ~2.138.
	if math.Abs(s-2.1381) > 1e-3 {
		t.Errorf("std = %v", s)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Error("empty input")
	}
	if m, s := MeanStd([]float64{7}); m != 7 || s != 0 {
		t.Error("single sample")
	}
}

func TestCI95KnownCase(t *testing.T) {
	// n=5, std=1: CI95 = 2.776 / sqrt(5) ≈ 1.2415.
	xs := []float64{-1.2649, -0.6325, 0, 0.6325, 1.2649} // mean 0, sample std ~1
	ci := CI95(xs)
	if math.Abs(ci-1.2415) > 0.01 {
		t.Errorf("CI95 = %v, want ~1.2415", ci)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("CI of single sample should be 0")
	}
}

func TestTCritMonotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		c := tCrit(df)
		if c > prev+1e-9 {
			t.Fatalf("tCrit not non-increasing at df=%d", df)
		}
		prev = c
	}
	if tCrit(1000) != 1.96 {
		t.Error("asymptotic tCrit")
	}
}

func TestWelch(t *testing.T) {
	a := []float64{10, 11, 9, 10.5, 9.5}
	b := []float64{20, 21, 19, 20.5, 19.5}
	if !SignificantlyDifferent(a, b) {
		t.Error("clearly different samples not flagged")
	}
	c := []float64{10, 11, 9, 10.5, 9.5}
	if SignificantlyDifferent(a, c) {
		t.Error("identical distributions flagged")
	}
	if _, _, ok := WelchT([]float64{1}, b); ok {
		t.Error("degenerate sample accepted")
	}
	if _, _, ok := WelchT([]float64{5, 5}, []float64{5, 5}); ok {
		t.Error("zero-variance pair accepted")
	}
}

// TestMannWhitneyU checks U and the two-sided p-value against values
// worked by hand: exact permutation tails without ties (C(6,3) = 20
// orderings of two samples of three, C(4,2) = 6 of two of two, C(20,10) =
// 184756 of two of ten), the tie-corrected normal approximation, and the
// degenerate cases.
func TestMannWhitneyU(t *testing.T) {
	seq := func(lo, hi float64) []float64 {
		var xs []float64
		for x := lo; x <= hi; x++ {
			xs = append(xs, x)
		}
		return xs
	}
	cases := []struct {
		name string
		a, b []float64
		u, p float64
	}{
		// Only 1 of 20 orderings has U = 0, one more has U = 9.
		{"separated", []float64{1, 2, 3}, []float64{4, 5, 6}, 0, 0.1},
		{"separated, swapped", []float64{4, 5, 6}, []float64{1, 2, 3}, 9, 0.1},
		// U counts for two of two are 1,1,2,1,1 over U = 0..4:
		// P(U <= 1) = 2/6, doubled.
		{"interleaved", []float64{1, 3}, []float64{2, 4}, 1, 4.0 / 6},
		{"ten apart", seq(1, 10), seq(11, 20), 0, 2.0 / 184756},
		// Ranks 1, 3, 3 | 3, 5, 6: U = 1 against a mean of 4.5; the
		// variance 9/12 * (7 - 24/30) = 4.65 and z = 3/sqrt(4.65).
		{"tied", []float64{1, 2, 2}, []float64{2, 3, 4}, 1, 0.16415972847851523},
		{"all tied", []float64{5, 5}, []float64{5, 5}, 2, 1},
		{"empty", nil, []float64{1}, 0, 1},
	}
	for _, c := range cases {
		u, p := MannWhitneyU(c.a, c.b)
		if math.Abs(u-c.u) > 1e-12 || math.Abs(p-c.p) > 1e-9*math.Max(1, 1/c.p) {
			t.Errorf("%s: MannWhitneyU = (%v, %v), want (%v, %v)", c.name, u, p, c.u, c.p)
		}
	}
}
