package stats

import (
	"cmp"
	"math"
	"slices"
)

// MeanStd returns the sample mean and the sample standard deviation
// (Bessel-corrected). Fewer than two samples yield a zero deviation.
func MeanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// CI95 returns the half-width of a 95% confidence interval for the mean
// of xs, using Student's t critical values for small samples.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	_, std := MeanStd(xs)
	return tCrit(n-1) * std / math.Sqrt(float64(n))
}

// tCrit returns the two-sided 95% Student-t critical value for df degrees
// of freedom (tabulated for small df, 1.96 asymptotically).
func tCrit(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
		2.262, 2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
		2.110, 2.101, 2.093, 2.086,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 30:
		return 2.05
	case df < 60:
		return 2.0
	}
	return 1.96
}

// WelchT computes Welch's t statistic and approximate degrees of freedom
// for the difference of means between two samples. Returns ok=false when
// either sample has fewer than two points or zero variance in both.
func WelchT(a, b []float64) (t float64, df float64, ok bool) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, false
	}
	ma, sa := MeanStd(a)
	mb, sb := MeanStd(b)
	va := sa * sa / float64(len(a))
	vb := sb * sb / float64(len(b))
	if va+vb == 0 {
		return 0, 0, false
	}
	t = (ma - mb) / math.Sqrt(va+vb)
	num := (va + vb) * (va + vb)
	den := va*va/float64(len(a)-1) + vb*vb/float64(len(b)-1)
	if den == 0 {
		return t, math.Inf(1), true
	}
	return t, num / den, true
}

// SignificantlyDifferent reports whether two samples' means differ at the
// 95% level under Welch's t-test.
func SignificantlyDifferent(a, b []float64) bool {
	t, df, ok := WelchT(a, b)
	if !ok {
		return false
	}
	return math.Abs(t) > tCrit(int(df))
}

// MannWhitneyU returns the Mann–Whitney U statistic of sample a against
// sample b (the number of pairs with a[i] > b[j], a tie counting one half)
// and the two-sided p-value for the hypothesis that both samples come from
// one distribution. Without ties and with at most exactUMax points a side,
// p is exact (the permutation distribution of U); otherwise it is the
// normal approximation with tie and continuity corrections. An empty
// sample gives U = 0 and p = 1.
func MannWhitneyU(a, b []float64) (u, p float64) {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	for _, x := range a {
		for _, y := range b {
			switch cmp.Compare(x, y) {
			case 1:
				u++
			case 0:
				u += 0.5
			}
		}
	}
	pooled := append(append(make([]float64, 0, n1+n2), a...), b...)
	slices.Sort(pooled)
	var ties float64 // sum of t^3 - t over each run of t equal values
	for i := 0; i < len(pooled); {
		j := i + 1
		for j < len(pooled) && cmp.Compare(pooled[i], pooled[j]) == 0 {
			j++
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	pairs := float64(n1 * n2)
	if ties == 0 && n1 <= exactUMax && n2 <= exactUMax {
		return u, math.Min(1, 2*uCDF(n1, n2, int(math.Min(u, pairs-u))))
	}
	n := float64(n1 + n2)
	sd := math.Sqrt(pairs / 12 * (n + 1 - ties/(n*(n-1))))
	if sd == 0 {
		return u, 1 // every value tied
	}
	z := math.Max(0, math.Abs(u-pairs/2)-0.5) / sd
	return u, math.Erfc(z / math.Sqrt2)
}

// exactUMax bounds the sample sizes MannWhitneyU treats exactly.
const exactUMax = 50

// uCDF returns P(U <= k) for samples of n1 and n2 distinct values drawn
// from one distribution. c[j][v] counts the orderings of i values of the
// first sample and j of the second whose U is v, built up over i: the
// largest value either belongs to the first sample and beats all j of the
// second, or belongs to the second and beats none.
func uCDF(n1, n2, k int) float64 {
	c := make([][]float64, n2+1)
	for j := range c {
		c[j] = make([]float64, n1*n2+1)
		c[j][0] = 1
	}
	for i := 1; i <= n1; i++ {
		for j := 0; j <= n2; j++ {
			for v := i * j; v >= 0; v-- {
				var ways float64
				if v >= j {
					ways = c[j][v-j]
				}
				if j > 0 {
					ways += c[j-1][v]
				}
				c[j][v] = ways
			}
		}
	}
	var below, total float64
	for v, ways := range c[n2] {
		if v <= k {
			below += ways
		}
		total += ways
	}
	return below / total
}
