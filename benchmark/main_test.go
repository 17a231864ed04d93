package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeRun runs the benchmark at 10 simulated minutes and one
// repetition, building into dir, and returns its exit status, its
// standard output and the -o result file.
func smokeRun(t *testing.T, dir string, args ...string) (int, string, resultFile) {
	t.Helper()
	out := filepath.Join(dir, "result.json")
	args = append([]string{"-root", "..", "-build", dir, "-duration", "10m", "-seconds", "0", "-o", out}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	var res resultFile
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatal(err)
		}
	}
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String(), res
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine decodes the final line of standard output.
func lastLine(t *testing.T, stdout string) summaryLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// Every workload runs in both modes, passes its checks, and prints
// exactly the metrics BENCHMARK.json names, each with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	spec := readSpec(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			mode := "0"
			if traced {
				want, mode = spec.PerLayer, "1"
			}
			args := []string{"-workload", w.name, "-trace", mode}
			if w.name == "serve" {
				// The daemon buffers about 440k records ahead of a
				// stalled client, so a trace of fewer than twice that
				// many (8h at this scale) can finish before SIGTERM
				// lands and leave no checkpoint to resume.
				args = append(args, "-duration", "12h")
			}
			code, stdout, res := smokeRun(t, dir, args...)
			line := lastLine(t, stdout)
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("%s trace=%s: exit %d, line %+v\n%s", w.name, mode, code, line, stdout)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.name, mode, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, mode, m.Name, got, m.Unit)
				}
				if s := res.Results[0].Metrics[m.Name]; s.N == 0 {
					t.Errorf("%s trace=%s: metric %s has no samples", w.name, mode, m.Name)
				}
			}
		}
	}
}

// A golden that does not match fails the run: input 0's runs count as
// failed and the exit status is 1.
func TestTamperedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLIs")
	}
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.txt")
	if err := os.WriteFile(golden, []byte("not the report\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := smokeRun(t, dir, "-workload", "report-8h", "-golden", golden)
	line := lastLine(t, stdout)
	if code != 1 || line.Correct || line.Failed == 0 {
		t.Fatalf("tampered golden: exit %d, line %+v", code, line)
	}
}

// -compare flags a median past wall_s's bound, calls one whose
// quartiles straddle the limit unresolved, and passes one within it.
func TestCompareFlagsRegression(t *testing.T) {
	var bound float64
	for _, m := range readSpec(t).EndToEnd {
		if m.Name == "wall_s" {
			bound = m.Bound
		}
	}
	dir := t.TempDir()
	write := func(name string, wall stat) string {
		f := resultFile{Results: []result{{Workload: "report-8h", Metrics: map[string]stat{
			"wall_s":      wall,
			"peak_rss_mb": {Value: 100, Unit: "MB", Q1: 99, Q3: 101, N: 9},
		}}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	around := func(median, halfIQR float64) stat {
		return stat{Value: median, Unit: "s", Q1: median - halfIQR, Q3: median + halfIQR, N: 9}
	}
	base := write("base.json", around(2, 0.02))
	limit := 2 * (1 + bound)
	for _, c := range []struct {
		name    string
		wall    stat
		code    int
		verdict string
	}{
		{"regression", around(limit+0.1, 0.02), 1, "REGRESSION"},
		{"unresolved", around(limit+0.1, 0.2), 0, "unresolved"},
		{"within", around(2*(1+bound/2), 0.02), 0, "ok"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-root", "..", "-compare", base, write(c.name+".json", c.wall)}, &stdout, &stderr)
		var row string
		for _, l := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(l, "wall_s") {
				row = l
			}
		}
		if code != c.code || !strings.HasSuffix(row, c.verdict) || !strings.Contains(stdout.String(), "peak_rss_mb") {
			t.Errorf("%s: exit %d, wall_s row %q\n%s%s", c.name, code, row, stdout.String(), stderr.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
