package benchjson

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// reportLines renders one perfbench run per (rate, heap) pair, each after
// a note line as perfbench prints them.
func reportLines(pairs ...[2]float64) string {
	var b strings.Builder
	for _, p := range pairs {
		b.WriteString("digest: hd-loss f6d61eec1d150170\n")
		b.WriteString(`{"correct":true,"attempted":10,"failed":0,"metrics":{"sessions_per_s":{"value":` +
			strconv.FormatFloat(p[0], 'g', -1, 64) + `,"unit":"sessions/s"},"peak_heap_mb":{"value":` +
			strconv.FormatFloat(p[1], 'g', -1, 64) + `,"unit":"MB"}}}` + "\n")
	}
	return b.String()
}

func TestParseReportsSkipsNotes(t *testing.T) {
	reps, err := ParseReports(strings.NewReader(reportLines([2]float64{100, 5}, [2]float64{110, 6})))
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[1].Metrics["sessions_per_s"].Value != 110 || reps[0].Metrics["peak_heap_mb"].Unit != "MB" {
		t.Fatalf("reports = %+v", reps)
	}
	if _, err := ParseReports(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed report line accepted")
	}
}

func TestCompareAB(t *testing.T) {
	base, err := ParseReports(strings.NewReader(reportLines(
		[2]float64{100, 5}, [2]float64{104, 5}, [2]float64{96, 5}, [2]float64{102, 5}, [2]float64{98, 5})))
	if err != nil {
		t.Fatal(err)
	}
	next, err := ParseReports(strings.NewReader(reportLines(
		[2]float64{130, 5}, [2]float64{125, 5}, [2]float64{135, 5}, [2]float64{131, 5}, [2]float64{129, 5})))
	if err != nil {
		t.Fatal(err)
	}
	rows := CompareAB(base, next)
	if len(rows) != 2 || rows[0].Metric != "peak_heap_mb" || rows[1].Metric != "sessions_per_s" {
		t.Fatalf("rows = %+v, want peak_heap_mb then sessions_per_s", rows)
	}
	heap, rate := rows[0], rows[1]
	// Base 96,98,100,102,104: median 100, quartiles 98 and 102. New
	// 125,129,130,131,135: median 130, quartiles 129 and 131.
	if rate.Base != (Spread{Median: 100, IQR: 4}) || rate.New != (Spread{Median: 130, IQR: 2}) ||
		math.Abs(rate.Ratio-1.3) > 1e-12 || rate.Higher != 5 || rate.Pairs != 5 || rate.Unit != "sessions/s" {
		t.Errorf("sessions_per_s row = %+v", rate)
	}
	// Fully separated samples of five: exact p = 2/C(10,5).
	if math.Abs(rate.P-2.0/252) > 1e-12 {
		t.Errorf("p = %v, want %v", rate.P, 2.0/252)
	}
	if heap.Ratio != 1 || heap.Higher != 0 || heap.P != 1 {
		t.Errorf("identical peak_heap_mb row = %+v", heap)
	}
}
