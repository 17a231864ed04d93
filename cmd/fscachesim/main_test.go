package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/report"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// TestMain runs the fscachesim command itself when BSDTRACE_RUN_MAIN is
// set, so a test can drive main's flag handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("BSDTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMainRejectsNegativeValues: a negative -crash-sweep, -crash-at or
// -fit, and an unknown -policy or -replace or a malformed -block, exits
// 1 naming the flag before the trace is read; the trace path here does
// not exist, so reading it first would name the file instead.
func TestMainRejectsNegativeValues(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.trace")
	for _, args := range [][]string{
		{"-crash-sweep", "-5"},
		{"-crash-at", "-1s"},
		{"-sweep", "tableVI", "-fit", "-3"},
		{"-policy", "nope"},
		{"-replace", "nope"},
		{"-block", "3X"},
	} {
		name := args[len(args)-2] // the refused flag
		cmd := exec.Command(os.Args[0], append(args, missing)...)
		cmd.Env = append(os.Environ(), "BSDTRACE_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), name) {
			t.Errorf("fscachesim %q: %v, stderr %q; want exit status 1 naming %s", args, err, stderr.String(), name)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"4096": 4096,
		"4K":   4096,
		"4k":   4096,
		"2M":   2 << 20,
		"390K": 390 << 10,
		" 1M ": 1 << 20,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "4G4", "K"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}

func TestRunSweeps(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 6, Duration: 15 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	// runSweep writes to an *os.File; use a temp file and read it back.
	for _, sweep := range []string{"tableVI", "tableVII", "fig7", "replacement", "zoo", "tiers", "flush", "stack"} {
		f, err := os.Create(filepath.Join(t.TempDir(), sweep+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if err := runSweep(f, tape, sweep, 0, nil); err != nil {
			t.Fatalf("%s: %v", sweep, err)
		}
		f.Close()
		data, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 100 {
			t.Errorf("%s produced only %d bytes", sweep, len(data))
		}
		if strings.Contains(string(data), "NaN") {
			t.Errorf("%s output contains NaN", sweep)
		}
	}
	if err := runSweep(os.Stdout, tape, "nope", 0, nil); err == nil {
		t.Errorf("unknown sweep accepted")
	}
}

// TestBuildTapeDamaged: the satellite exit-path contract at the tape
// layer — strict builds fail on damage, lenient builds repair and finish.
func TestBuildTapeDamaged(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 6, Duration: 15 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}

	clean := filepath.Join(t.TempDir(), "clean.trace")
	if err := trace.WriteFile(clean, res.Events); err != nil {
		t.Fatal(err)
	}
	if _, err := buildTape(clean, "bsd", false, nil); err != nil {
		t.Fatalf("strict build failed on a clean trace: %v", err)
	}

	f, err := os.Create(filepath.Join(t.TempDir(), "damaged.trace"))
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriterV2(f, 512)
	for _, e := range res.Events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 3; i < len(data)/3+16; i++ {
		data[i] ^= 0x55
	}
	if err := os.WriteFile(f.Name(), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := buildTape(f.Name(), "bsd", false, nil); err == nil {
		t.Fatal("strict build accepted a damaged trace")
	} else if !strings.Contains(err.Error(), "-lenient") {
		t.Fatalf("strict error not actionable: %v", err)
	}
	tape, err := buildTape(f.Name(), "bsd", true, nil)
	if err != nil {
		t.Fatalf("lenient build failed: %v", err)
	}
	if _, err := cachesim.SimulateTape(tape, cachesim.Config{
		BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite,
	}); err != nil {
		t.Fatalf("simulation over repaired tape failed: %v", err)
	}
}

func TestRunCrashSweepAndCrashAt(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 8, Duration: 15 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Create(filepath.Join(t.TempDir(), "crash.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := report.CrashLoss(f, tape, 4096, 2<<20, 16, nil); err != nil {
		t.Fatal(err)
	}
	if err := runCrashAt(f, tape, cachesim.Config{
		BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite,
	}, 10*trace.Minute, nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		"Reliability.", "Write-Through", "Delayed Write", "crash at 10m0s", "dirty blocks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("crash output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("crash output contains NaN")
	}
}

// TestWriteErrorsReturned: output that cannot be written is an error,
// not a silent exit 0.
func TestWriteErrorsReturned(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 8, Duration: 15 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	tape, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := os.Create(filepath.Join(t.TempDir(), "closed.txt"))
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()

	if err := report.CrashLoss(closed, tape, 4096, 2<<20, 8, nil); err == nil {
		t.Error("CrashLoss into a closed file returned nil")
	}
	cfg := cachesim.Config{BlockSize: 4096, CacheSize: 2 << 20, Write: cachesim.DelayedWrite}
	if err := runCrashAt(closed, tape, cfg, 10*trace.Minute, nil); err == nil {
		t.Error("runCrashAt into a closed file returned nil")
	}
	for _, sweep := range []string{"tableVI", "tableVII", "tiers"} {
		if err := runSweep(closed, tape, sweep, 0, nil); err == nil {
			t.Errorf("-sweep %s into a closed file returned nil", sweep)
		}
	}
	r, err := cachesim.SimulateTape(tape, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSummary(closed, cfg, r); err == nil {
		t.Error("writeSummary into a closed file returned nil")
	}
}
