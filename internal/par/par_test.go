package par

import (
	"errors"
	"testing"
)

func TestRunParallelErrorAndOrder(t *testing.T) {
	// All indexes run exactly once.
	seen := make([]int, 100)
	err := Run(100, func(i int) error {
		seen[i]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
	// Errors are surfaced.
	wantErr := errors.New("boom")
	err = Run(10, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
	// n = 1 uses the serial path.
	ran := false
	if err := Run(1, func(int) error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("serial path failed")
	}
	// n = 0 is a no-op.
	if err := Run(0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Errorf("empty parallel failed: %v", err)
	}
}
