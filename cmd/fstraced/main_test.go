package main

import (
	"os"
	"testing"
)

// TestRunRejectsBadScale: a -scale that is not a positive finite number
// fails run's flag check (exit status 2) before the daemon listens; the
// unlistenable -addr would make a run that got past the check exit 1.
func TestRunRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"0", "-3", "NaN", "+Inf", "-Inf"} {
		if got := run([]string{"-scale", scale, "-addr", "127.0.0.1:-1"}, os.Stdout); got != 2 {
			t.Errorf("fstraced -scale %s: exit status %d, want 2", scale, got)
		}
	}
}
