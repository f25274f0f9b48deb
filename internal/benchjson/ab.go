package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rtcadapt/internal/stats"
)

// Report is one repository-benchmark run: the metrics of the JSON line
// `perfbench/run.sh` ends its output with.
type Report struct {
	Metrics map[string]Metric `json:"metrics"`
}

// Metric is one named value of a Report.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ParseReports reads one Report per JSON-object line, in order. Other
// lines (the human-readable notes perfbench prints first) are skipped.
func ParseReports(r io.Reader) ([]Report, error) {
	var out []Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var rep Report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}

// ReadReports parses the Report lines of a file.
func ReadReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	reps, err := ParseReports(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reps, nil
}

// Spread is the median and interquartile range of one side's runs.
type Spread struct {
	Median, IQR float64
}

// ABRow compares one metric between interleaved runs of a base and a new
// build: run i of each side forms pair i.
type ABRow struct {
	Metric, Unit string
	Base, New    Spread
	// Ratio is the new median over the base median (0 when the base
	// median is 0).
	Ratio float64
	// Higher counts the pairs whose new run reads higher than its base
	// run, out of Pairs.
	Higher, Pairs int
	// P is the two-sided Mann–Whitney U p-value for both sides' runs
	// coming from one distribution.
	P float64
}

// CompareAB compares every metric both sides report in all of their runs,
// sorted by name.
func CompareAB(base, new []Report) []ABRow {
	var names []string
	if len(base) > 0 {
		for name := range base[0].Metrics {
			if inAll(name, base) && inAll(name, new) {
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	rows := make([]ABRow, 0, len(names))
	for _, name := range names {
		b, n := values(name, base), values(name, new)
		row := ABRow{
			Metric: name,
			Unit:   base[0].Metrics[name].Unit,
			Base:   spread(b),
			New:    spread(n),
			Pairs:  min(len(b), len(n)),
		}
		if row.Base.Median != 0 {
			row.Ratio = row.New.Median / row.Base.Median
		}
		for i := 0; i < row.Pairs; i++ {
			if n[i] > b[i] {
				row.Higher++
			}
		}
		_, row.P = stats.MannWhitneyU(n, b)
		rows = append(rows, row)
	}
	return rows
}

func inAll(name string, reps []Report) bool {
	for _, r := range reps {
		if _, ok := r.Metrics[name]; !ok {
			return false
		}
	}
	return len(reps) > 0
}

func values(name string, reps []Report) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func spread(xs []float64) Spread {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return Spread{Median: s.Quantile(0.5), IQR: s.Quantile(0.75) - s.Quantile(0.25)}
}
