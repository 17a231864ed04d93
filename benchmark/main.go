// Command benchmark is the repository's end-to-end benchmark. It builds
// fsreport, fscachesim, fstrace and fstraced from the tree (the build is
// not timed), drives those real binaries as subprocesses on one of four
// workloads, checks every output for correctness, and prints each metric
// by name with its unit. A separate traced mode runs the layer census
// in-process instead and prints one number per layer.
//
// Workloads (see README.md for why each was chosen):
//
//	report-8h     fsreport -duration 8h -ablations; golden-checked at seed 1
//	fleet-x16     fsreport -duration 8h -scale 16 -only tableIII
//	cache-sweeps  fscachesim -sweep zoo + -sweep tableVII over an fstrace file
//	serve         fstraced 24h x8, two HTTP clients, checkpoint and -resume
//
// A run measures three inputs made from -seed: it runs repetitions back
// to back, cycling through the inputs, until -seconds have passed; each
// input is set up once, just before its first repetition, and the
// set-ups count against -seconds too. End-to-end metrics, measured with
// tracing off: wall_s (median time of one repetition), peak_rss_mb
// (median peak RSS of the CLI or daemon) and setup_s (median of the
// set-ups).
//
// The traced run (-trace 1) repeats the workload's generation in-process
// and runs every layer's public entry points over its trace, wrapping
// each call in a span; per-layer metrics are read off the spans. Untraced
// and traced census passes alternate, so the tracing overhead is measured
// too.
//
// Usage (from the repository root; benchmark/run.sh sets up the build):
//
//	bash benchmark/run.sh -workload all -seed 1 -o base.json
//	bash benchmark/run.sh -workload serve -seed 3 -seconds 10 -trace 1 -spans spans.json
//	bash benchmark/run.sh -compare base.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check makes the exit
// status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are a run's settings.
type options struct {
	root     string        // repository root
	build    string        // binaries and scratch files
	seed     int64         // workload seed
	seconds  float64       // measuring time per workload
	duration time.Duration // overrides every workload's simulated time; 0 keeps each one's own
	golden   string        // golden report-8h output; "" = the committed one, at seed 1 and 8h only
}

// stat summarises one metric over a run's samples: the median, the
// quartiles as Python's statistics.quantiles(values, n=4) gives them, and
// the sample count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// result is one workload's outcome, as written by -o.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Traced    bool            `json:"traced"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	// Info holds numbers reported beside the metrics that the benchmark
	// does not gate on: serve's join latency and resume time, and the
	// host calibration loop.
	Info map[string]stat `json:"info,omitempty"`

	spans []span // the last traced census pass's, for -spans
}

// resultFile is the -o document.
type resultFile struct {
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"go_max_procs"`
	Results    []result `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 28, "measuring time per workload, in seconds")
	traceMode := fs.Int("trace", 0, "1 runs the traced in-process layer census instead of the CLIs")
	out := fs.String("o", "", "also write the full result (medians, quartiles, counts) as JSON to this file")
	spansPath := fs.String("spans", "", "with -trace 1, write the spans of the last traced pass to this file")
	compare := fs.Bool("compare", false, "compare two -o files: -compare OLD NEW")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.build, "build", "", "directory for binaries and scratch files (default ROOT/.bench_build)")
	fs.DurationVar(&o.duration, "duration", 0, "override every workload's simulated duration, for smoke runs")
	fs.StringVar(&o.golden, "golden", "", "golden report-8h output (default ROOT/docs/report-8h-seed1.txt, checked at seed 1 and 8h)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return runCompare(filepath.Join(o.root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	specs, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if o.build == "" {
		o.build = filepath.Join(o.root, ".bench_build")
	}

	bin := filepath.Join(o.build, "bin")
	t := time.Now()
	if err := buildCLIs(o.root, bin); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "built %s in %s (%.1fs, not timed)\n", strings.Join(cliNames, " "), bin, time.Since(t).Seconds())

	file := resultFile{Seed: o.seed, Seconds: o.seconds, GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, spec := range specs {
		res, err := runWorkload(o, bin, spec, *traceMode == 1, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		file.Results = append(file.Results, res)
	}
	if err := writeOutputs(*out, *spansPath, file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	line := summary(file.Results)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !line.Correct {
		return 1
	}
	return 0
}

// cliNames are the commands the workloads drive.
var cliNames = []string{"fsreport", "fscachesim", "fstrace", "fstraced"}

// buildCLIs builds the commands under test from the tree at root.
func buildCLIs(root, bin string) error {
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, c := range cliNames {
		args = append(args, "./cmd/"+c)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// runWorkload measures one workload in a scratch directory of its own,
// which it removes afterwards, and prints its metrics.
func runWorkload(o options, bin string, spec workloadSpec, traced bool, stdout io.Writer) (result, error) {
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.build, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	r := &runner{opts: o, bin: bin, dir: dir, spec: spec, log: stdout}
	res := result{Workload: spec.name, Seed: o.seed, Traced: traced}
	if traced {
		res.Metrics, res.spans = traceWorkload(r)
	} else {
		res.Metrics, res.Info, err = measure(r)
	}
	if err != nil {
		return result{}, err
	}
	res.Attempted, res.Failed, res.Errors = r.tally.attempted, r.tally.failed, r.tally.errs
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printResult(stdout, res)
	return res, nil
}

// writeOutputs writes the -o result file and the -spans file, the
// latter keyed by workload; an empty path skips its file.
func writeOutputs(out, spansPath string, file resultFile) error {
	spans := map[string][]span{}
	for _, r := range file.Results {
		if r.spans != nil {
			spans[r.Workload] = r.spans
		}
	}
	for _, f := range []struct {
		path string
		v    any
	}{{out, file}, {spansPath, spans}} {
		if f.path == "" {
			continue
		}
		data, err := json.MarshalIndent(f.v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printResult writes one line per metric, then the failures.
func printResult(w io.Writer, res result) {
	mode := "end-to-end"
	if res.Traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d (%s): %d attempted, %d failed\n", res.Workload, res.Seed, mode, res.Attempted, res.Failed)
	for _, group := range []map[string]stat{res.Metrics, res.Info} {
		for _, k := range sortedKeys(group) {
			s := group[k]
			fmt.Fprintf(w, "  %-34s %14.6g %-12s q1 %-10.4g q3 %-10.4g n=%d\n", k, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]lineStat `json:"metrics"`
}

type lineStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the results into the final line. With one workload the
// metric names are the bare names; with several they are prefixed with
// the workload.
func summary(results []result) summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]lineStat{}}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for k, s := range res.Metrics {
			if len(results) > 1 {
				k = res.Workload + "/" + k
			}
			line.Metrics[k] = lineStat{Value: s.Value, Unit: s.Unit}
		}
	}
	return line
}

// tally counts the operations a run attempted and those that failed: a
// CLI run, a join, a census leg. An operation fails when it errors or
// when its output fails a correctness check.
type tally struct {
	attempted, failed int
	errs              []string
}

// maxErrs bounds the failures a result lists; the count stays exact.
const maxErrs = 20

func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, err.Error())
	}
}

// summarize builds a stat from samples.
func summarize(unit string, xs []float64) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, q3 := quartiles(s)
	return stat{Value: median(s), Unit: unit, Q1: q1, Q3: q3, N: len(s)}
}

// median of sorted samples.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted samples by the exclusive method, which is Python's
// statistics.quantiles(values, n=4) default.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile of samples by nearest rank.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
