package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the fsbench command itself when BSDTRACE_RUN_MAIN is set,
// so a test can drive main's flag handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("BSDTRACE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMainRejectsBadValues: a -duration under the trace clock's 1 ms
// tick, a negative -workers, or a -scales entry that is not a positive
// finite number exits 2 naming it before any stage runs, so no record is
// written. A single small scale keeps a run that slips through short.
func TestMainRejectsBadValues(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	for _, args := range [][]string{
		{"-duration", "0"},
		{"-duration", "-1h"},
		{"-duration", "500us"},
		{"-workers", "-3"},
		{"-scales", "NaN"},
		{"-scales", "1,+Inf"},
	} {
		name := args[len(args)-2] // the refused flag
		if name == "-scales" {
			name = "scale"
		}
		cmd := exec.Command(os.Args[0], append([]string{"-duration", "1m", "-scales", "1", "-o", out}, args...)...)
		cmd.Env = append(os.Environ(), "BSDTRACE_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), name) {
			t.Errorf("fsbench %q: %v, stderr %q; want exit status 2 naming %s", args, err, stderr.String(), name)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("fsbench %q wrote the record (%v)", args, err)
			os.Remove(out)
		}
	}
}
