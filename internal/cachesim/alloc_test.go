package cachesim

import (
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// TestReplayAllocsIndependentOfLength: a replay over an already-resolved
// tape allocates its frames and policy state up front and nothing per
// block, so a short prefix of a tape costs exactly as many allocations
// as the whole tape, under every policy.
func TestReplayAllocsIndependentOfLength(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	full, err := xfer.NewTape(res.Events)
	if err != nil {
		t.Fatal(err)
	}
	prefix := full.Truncate(5 * trace.Minute)
	allocs := func(tape *xfer.Tape, cfg Config) float64 {
		r := resolvedFor(tape, cfg.BlockSize)
		// Enough runs that a stray runtime allocation (a GC worker
		// starting) rounds away in the average.
		return testing.AllocsPerRun(10, func() { newCache(tape, r, cfg).run() })
	}
	for _, rep := range AllReplacements() {
		cfg := Config{BlockSize: 4096, CacheSize: UnixCacheSize, Write: DelayedWrite, Replacement: rep, Seed: 1}
		if err := cfg.fill(); err != nil {
			t.Fatal(err)
		}
		short, long := allocs(prefix, cfg), allocs(full, cfg)
		if short != long {
			t.Errorf("%v: replay allocates %v objects over a 5m prefix but %v over the 1h tape", rep, short, long)
		}
	}
}
