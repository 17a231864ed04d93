package cachesim

// The policy-zoo sweeps: the Figure 5-7 experiments re-run across every
// replacement policy the simulator ships, instead of only the paper's
// LRU. Results are indexed [row][policy] with policies in
// AllReplacements order (classic four, then the modern zoo), so the
// first column of every sweep is the paper's own configuration.

import "bsdtrace/internal/xfer"

// ZooSweepTape re-runs the Figure 5 experiment across the zoo: miss
// ratio as a function of cache size under delayed-write, one column per
// replacement policy. Indexed [cacheSize][policy].
func ZooSweepTape(tape *xfer.Tape, blockSize int64, cacheSizes []int64, seed int64) ([][]*Result, error) {
	reps := AllReplacements()
	return grid(tape, len(cacheSizes), len(reps), MultiSimulate, func(i, j int) Config {
		return Config{
			BlockSize: blockSize, CacheSize: cacheSizes[i], Write: DelayedWrite,
			Replacement: reps[j], Seed: seed,
		}
	})
}

// ZooBlockSizeSweepTape re-runs the Figure 6 experiment across the zoo:
// disk I/Os as a function of block size at one cache size under
// delayed-write. Indexed [blockSize][policy].
func ZooBlockSizeSweepTape(tape *xfer.Tape, blockSizes []int64, cacheSize int64, seed int64) ([][]*Result, error) {
	reps := AllReplacements()
	return grid(tape, len(blockSizes), len(reps), MultiSimulate, func(i, j int) Config {
		return Config{
			BlockSize: blockSizes[i], CacheSize: cacheSize, Write: DelayedWrite,
			Replacement: reps[j], Seed: seed,
		}
	})
}

// ZooPagingSweepTape re-runs the Figure 7 experiment across the zoo:
// miss ratio with program page-in simulated, under delayed-write.
// Indexed [cacheSize][policy].
func ZooPagingSweepTape(tape *xfer.Tape, blockSize int64, cacheSizes []int64, seed int64) ([][]*Result, error) {
	reps := AllReplacements()
	return grid(tape, len(cacheSizes), len(reps), MultiSimulate, func(i, j int) Config {
		return Config{
			BlockSize: blockSize, CacheSize: cacheSizes[i], Write: DelayedWrite,
			Replacement: reps[j], Seed: seed, SimulatePaging: true,
		}
	})
}
