package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bsdtrace/internal/cachesim"
)

// TestMain runs the fsreport command itself when BSDTRACE_RUN_MAIN is
// set, so a test can drive main's flag handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("BSDTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMainRejectsBadValuesKeepsOutput: flag values that parse but make
// no sense exit 1 before -o or -cpuprofile is created, so an existing
// report file survives intact and no profile appears.
func TestMainRejectsBadValuesKeepsOutput(t *testing.T) {
	dir := t.TempDir()
	out, prof := filepath.Join(dir, "existing.txt"), filepath.Join(dir, "cpu.prof")
	const keep = "an earlier report"
	for _, args := range [][]string{
		{"-duration", "0"},
		{"-only", "bogus"},
		{"-scale", "-3"},
		{"-scale", "0"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-shards", "-2"},
		{"-stability", "-1"},
		{"-input", foreignFixture("msr-sample.csv"), "-format", "blockcsv", "-fit", "-3"},
	} {
		if err := os.WriteFile(out, []byte(keep), 0o644); err != nil {
			t.Fatal(err)
		}
		name := args[len(args)-2] // the refused flag
		// A short gated run keeps a value that slips through cheap.
		cmd := exec.Command(os.Args[0], append([]string{"-duration", "10m", "-only", "tableIII",
			"-o", out, "-cpuprofile", prof}, args...)...)
		cmd.Env = append(os.Environ(), "BSDTRACE_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), name) {
			t.Errorf("fsreport %q: %v, stderr %q; want exit status 1 naming %s", args, err, stderr.String(), name)
		}
		if got, err := os.ReadFile(out); err != nil || string(got) != keep {
			t.Errorf("fsreport %q changed the existing -o file: %d bytes, want %d (%v)", args, len(got), len(keep), err)
		}
		if _, err := os.Stat(prof); !os.IsNotExist(err) {
			t.Errorf("fsreport %q created the -cpuprofile file (%v)", args, err)
			os.Remove(prof)
		}
	}
}

// TestRunFullReport drives the complete report path on short traces and
// checks every section appears.
func TestRunFullReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 20 * time.Minute, seed: 1, ablations: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I.", "Table III.", "Table IV.", "Table V.",
		"Inter-event intervals", "Cross-user file sharing",
		"Figure 1(a)", "Figure 2(a)", "Figure 3.", "Figure 4(b)",
		"Table VI.", "Figure 5.", "Table VII.", "Figure 6.", "Figure 7.",
		"Block residency", "Reliability.", "Metadata I/O", "Disk space waste",
		"Shared file server", "Diskless workstations", "Working set W(T)",
		"Ablation A1.", "Ablation A2.", "Ablation A3.", "Ablation A4.",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestRunOnly checks section filtering.
func TestRunOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 10 * time.Minute, seed: 2, only: "tableV"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table V.") {
		t.Errorf("tableV missing")
	}
	if strings.Contains(out, "Table VI.") || strings.Contains(out, "Figure 3.") {
		t.Errorf("-only leaked other sections")
	}
}

// failWriter fails every write, as a full disk or a closed pipe does.
type failWriter struct{}

var errWriteFailed = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestRunWriteErrorReturned: output that cannot be written is an error,
// not a silent exit 0.
func TestRunWriteErrorReturned(t *testing.T) {
	err := run(failWriter{}, reportConfig{duration: 10 * time.Minute, seed: 1, only: "tableIII"})
	if !errors.Is(err, errWriteFailed) {
		t.Fatalf("run -only tableIII into a failing writer = %v, want the write error", err)
	}
}

// TestRunRejectsUnknownOnly: a mistyped -only fails before writing
// anything and names the valid items.
func TestRunRejectsUnknownOnly(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, reportConfig{duration: 10 * time.Minute, seed: 1, only: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "diskless") {
		t.Fatalf("run -only bogus = %v, want an error listing the valid items", err)
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %d bytes before rejecting -only", buf.Len())
	}
}

// TestRunRejectsShortDuration: a span under the trace clock's 1 ms tick
// would generate 8-hour traces and divide rates by zero or a negative
// span, so every mode refuses it before writing anything.
func TestRunRejectsShortDuration(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Hour, 500 * time.Microsecond} {
		var buf bytes.Buffer
		for mode, err := range map[string]error{
			"run":        run(&buf, reportConfig{duration: d, seed: 1, only: "diskless"}),
			"-stability": runStability(&buf, d, 1, 1),
			"-degrade":   runDegrade(&buf, d, 1),
		} {
			if err == nil || !strings.Contains(err.Error(), "-duration") {
				t.Errorf("%s with -duration %v = %v, want a -duration error", mode, d, err)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("-duration %v: wrote %d bytes before rejecting it", d, buf.Len())
		}
	}
}

// TestRunDataExport writes the CSV data set.
func TestRunDataExport(t *testing.T) {
	dir := t.TempDir() + "/data"
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 10 * time.Minute, seed: 1, only: "tableIII", dataDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 12 {
		t.Errorf("only %d CSV files written", len(entries))
	}
}

// TestRunDeterministic: same seed, same bytes.
func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(&a, reportConfig{duration: 10 * time.Minute, seed: 3, only: "tableIV"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&b, reportConfig{duration: 10 * time.Minute, seed: 3, only: "tableIV"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("report not deterministic")
	}
}

// TestRunStability exercises the seed-spread mode.
func TestRunStability(t *testing.T) {
	var buf bytes.Buffer
	if err := runStability(&buf, 10*time.Minute, 1, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Seed stability", "whole-file read accesses", "mean ± sd"} {
		if !strings.Contains(out, want) {
			t.Errorf("stability output missing %q", want)
		}
	}
}

// TestRunDegrade exercises the loss-sensitivity sweep: both tables
// render, the clean row carries a zero repair budget, and the lossy rows
// show the mangler actually discarding records. The output is pinned to
// the SHA-256 of the sweep's output when each rate re-read a spill file
// instead of a tee of the live generation.
func TestRunDegrade(t *testing.T) {
	var buf bytes.Buffer
	if err := runDegrade(&buf, 20*time.Minute, 1); err != nil {
		t.Fatal(err)
	}
	const want = "74a0a0d0c3e550dc18ecbc8b5429a4e8c5f7eb6eec81277fbb88d2fd0051560c"
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
		t.Errorf("degrade output SHA-256 %x, want %s", sum, want)
	}
	out := buf.String()
	for _, want := range []string{
		"Loss sensitivity", "Repair budget",
		"clean", "0.01%", "0.1%", "1%", "5%",
		"Write-Through", "Delayed Write",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degrade output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("degrade output contains NaN")
	}
	// The clean baseline row must show an untouched repair budget —
	// the no-op guarantee surfacing in the report.
	budget := out[strings.Index(out, "Repair budget"):]
	for _, line := range strings.Split(budget, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "clean" {
			continue
		}
		// clean | events-in | lost | dropped | synthesized | rewritten | bytes unit
		for _, f := range fields[2:7] {
			if f != "0" {
				t.Errorf("clean repair-budget row not all-zero: %q", line)
				break
			}
		}
	}
}

// TestRunLenientFlagPassesClean: -lenient over undamaged generated
// streams is a no-op — the report renders the same sections as strict
// mode.
func TestRunLenientFlagPassesClean(t *testing.T) {
	var strict, lenient bytes.Buffer
	if err := run(&strict, reportConfig{duration: 10 * time.Minute, seed: 4, only: "tableIV"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&lenient, reportConfig{duration: 10 * time.Minute, seed: 4, only: "tableIV", lenient: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(strict.Bytes(), lenient.Bytes()) {
		t.Errorf("-lenient changed the report over clean traces")
	}
}

// TestRunReliability renders the crash-injection section alone and
// checks the paper's qualitative ordering survives into the report:
// write-through is never vulnerable, and every policy column renders.
func TestRunReliability(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, reportConfig{duration: 20 * time.Minute, seed: 1, only: "reliability"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Reliability.", "Write-Through", "30 sec Flush", "5 min Flush", "Delayed Write",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("reliability section missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Write-Through") && !strings.Contains(line, "0.0%") {
			t.Errorf("write-through row should be 0%% vulnerable: %q", line)
		}
	}
	if strings.Contains(out, "Table VI.") {
		t.Errorf("-only reliability leaked other sections")
	}
}

// TestMetadataRideEqualsRegeneration: the namei simulators that ride the
// fan-out pass's A5 generation end with the Stats of those on the
// sharded path's single unsharded regeneration.
func TestMetadataRideEqualsRegeneration(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		cfg := reportConfig{duration: 2 * time.Hour, seed: seed, scale: 1, only: "metadata"}
		fl, err := fanOut(cfg, []string{"A5", "E3", "C4"}, false)
		if err != nil {
			t.Fatal(err)
		}
		regen := newMetaSims()
		cfg.shards = 2
		if err := runMetadata(io.Discard, cfg, regen, &cachesim.Result{}); err != nil {
			t.Fatal(err)
		}
		for i, sim := range fl.meta {
			if sim.Stats != regen[i].Stats || sim.Stats.Resolves == 0 {
				t.Errorf("seed %d, %d name entries: ridden %+v, regenerated %+v",
					seed, metaScales[i], sim.Stats, regen[i].Stats)
			}
		}
	}
}
