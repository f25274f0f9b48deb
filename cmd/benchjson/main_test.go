package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `pkg: rtcadapt/internal/simtime
BenchmarkSchedulerStep-8   	1000000	        95.2 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestConvertToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-o", path}, strings.NewReader(sample), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkSchedulerStep") {
		t.Fatalf("output missing benchmark: %s", data)
	}
}

func TestEmptyInputFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(nil, strings.NewReader("no benchmarks here\n"), &stdout, &stderr)
	if code == 0 {
		t.Fatal("empty input accepted")
	}
}

func TestAgainstGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-o", base}, strings.NewReader(sample), &stdout, &stderr); code != 0 {
		t.Fatalf("baseline write failed: %s", stderr.String())
	}

	slower := strings.ReplaceAll(sample, "95.2 ns/op", "300.0 ns/op")
	stdout.Reset()
	code := run([]string{"-against", base, "-max-ns-ratio", "1.5"}, strings.NewReader(slower), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("3x regression passed the 1.5x gate (exit %d): %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Fatalf("no REGRESSION line: %s", stdout.String())
	}

	stdout.Reset()
	code = run([]string{"-against", base, "-max-ns-ratio", "1.5"}, strings.NewReader(sample), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("identical run failed the gate: %s", stdout.String())
	}
}

// TestLatestBaseline: -against auto must resolve the newest committed
// baseline generation numerically, not lexically.
func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_7.json", "BENCH_10.json", "BENCH_x.json", "NOTBENCH_99.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("[]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "BENCH_10.json"); got != want {
		t.Errorf("latestBaseline = %q, want %q", got, want)
	}

	empty := t.TempDir()
	if _, err := latestBaseline(empty); err == nil {
		t.Error("latestBaseline on a dir with no baselines: want error, got nil")
	}
}

func TestABTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates ...string) string {
		var b strings.Builder
		for _, r := range rates {
			b.WriteString("host: test\n")
			b.WriteString(`{"metrics":{"sessions_per_s":{"value":` + r + `,"unit":"sessions/s"}}}` + "\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", "100", "98", "102")
	next := write("new.jsonl", "130", "128", "133")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ab", base, next}, strings.NewReader(""), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if want := "| sessions_per_s | sessions/s | 100 (2) | 130 (2.5) | 1.300 | 3/3 | 0.1 |"; !strings.Contains(stdout.String(), want) {
		t.Fatalf("table lacks %q:\n%s", want, stdout.String())
	}
	if code := run([]string{"-ab", base}, strings.NewReader(""), &stdout, &stderr); code == 0 {
		t.Fatal("-ab without a second file accepted")
	}
}
