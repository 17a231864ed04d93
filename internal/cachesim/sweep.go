package cachesim

import (
	"errors"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// grid replays one tape into a rows × cols grid of configurations,
// where cell(i, j) is the configuration at row i, column j, and returns
// the results indexed [row][col]. Every sweep is one grid, handed whole
// to run: MultiSimulate, whose per-configuration replays share the
// tape's resolutions and the parallel workers, or, for the LRU sweeps,
// lruSweep, which replays the tape once per block size and paging mode.
func grid(tape *xfer.Tape, rows, cols int, run func(*xfer.Tape, []Config) ([]*Result, error), cell func(i, j int) Config) ([][]*Result, error) {
	cfgs := make([]Config, 0, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			cfgs = append(cfgs, cell(i, j))
		}
	}
	rs, err := run(tape, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]*Result, rows)
	for i := range out {
		out[i] = rs[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out, nil
}

// PolicySpec names one write-policy column of the paper's Table VI.
type PolicySpec struct {
	Name     string
	Write    WritePolicy
	Interval trace.Time
}

// PaperPolicies returns the four write policies of Table VI in the
// paper's column order: write-through, 30-second flush, 5-minute flush,
// delayed-write.
func PaperPolicies() []PolicySpec {
	return []PolicySpec{
		{Name: "Write-Through", Write: WriteThrough},
		{Name: "30 sec Flush", Write: FlushBack, Interval: 30 * trace.Second},
		{Name: "5 min Flush", Write: FlushBack, Interval: 5 * trace.Minute},
		{Name: "Delayed Write", Write: DelayedWrite},
	}
}

// PaperCacheSizes returns the cache sizes of Table VI: the 390-kbyte UNIX
// configuration and 1 through 16 megabytes.
func PaperCacheSizes() []int64 {
	return []int64{UnixCacheSize, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
}

// PaperBlockSizes returns the block sizes of Table VII: 1 through 32
// kbytes.
func PaperBlockSizes() []int64 {
	return []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
}

// PaperBlockCacheSizes returns the cache sizes of Table VII: 400 kbytes
// and 2, 4, 8 megabytes.
func PaperBlockCacheSizes() []int64 {
	return []int64{400 << 10, 2 << 20, 4 << 20, 8 << 20}
}

// PolicySweepTape regenerates Table VI / Figure 5 from a tape: miss
// ratio as a function of cache size and write policy at a fixed block
// size. The result is indexed [cacheSize][policy].
func PolicySweepTape(tape *xfer.Tape, blockSize int64, cacheSizes []int64, policies []PolicySpec) ([][]*Result, error) {
	return grid(tape, len(cacheSizes), len(policies), lruSweep, func(i, j int) Config {
		p := policies[j]
		return Config{BlockSize: blockSize, CacheSize: cacheSizes[i], Write: p.Write, FlushInterval: p.Interval}
	})
}

// BlockSizeSweepResult holds Table VII / Figure 6: disk I/Os as a
// function of block size and cache size under delayed-write. Results is
// indexed [blockSize][cacheSize]; Accesses[i] is the no-cache logical
// block access count for BlockSizes[i] (the table's first column).
type BlockSizeSweepResult struct {
	BlockSizes []int64
	CacheSizes []int64
	Accesses   []int64
	Results    [][]*Result
}

// BlockSizeSweepTape runs the Table VII experiment over a tape. Each
// block size's access count is read from its first cache size, so the
// cache-size list must not be empty.
func BlockSizeSweepTape(tape *xfer.Tape, blockSizes, cacheSizes []int64) (*BlockSizeSweepResult, error) {
	if len(cacheSizes) == 0 {
		return nil, errors.New("cachesim: block-size sweep: the cache-size list is empty")
	}
	rs, err := grid(tape, len(blockSizes), len(cacheSizes), lruSweep, func(i, j int) Config {
		return Config{BlockSize: blockSizes[i], CacheSize: cacheSizes[j], Write: DelayedWrite}
	})
	if err != nil {
		return nil, err
	}
	out := &BlockSizeSweepResult{
		BlockSizes: blockSizes,
		CacheSizes: cacheSizes,
		Accesses:   make([]int64, len(blockSizes)),
		Results:    rs,
	}
	for i := range blockSizes {
		out.Accesses[i] = rs[i][0].LogicalAccesses
	}
	return out, nil
}

// PagingSweepTape regenerates Figure 7 from a tape: delayed-write miss
// ratios across cache sizes with and without simulated program page-in.
// The result is indexed [cacheSize][0 = ignored, 1 = simulated].
func PagingSweepTape(tape *xfer.Tape, blockSize int64, cacheSizes []int64) ([][2]*Result, error) {
	rs, err := grid(tape, len(cacheSizes), 2, lruSweep, func(i, j int) Config {
		return Config{BlockSize: blockSize, CacheSize: cacheSizes[i], Write: DelayedWrite, SimulatePaging: j == 1}
	})
	if err != nil {
		return nil, err
	}
	out := make([][2]*Result, len(cacheSizes))
	for i, row := range rs {
		out[i] = [2]*Result{row[0], row[1]}
	}
	return out, nil
}

// ReplacementSweepTape runs ablation A1 over a tape: all four
// replacement policies at one cache configuration, delayed-write.
func ReplacementSweepTape(tape *xfer.Tape, blockSize, cacheSize int64, seed int64) (map[Replacement]*Result, error) {
	reps := []Replacement{LRU, FIFO, Clock, Random}
	rs, err := grid(tape, 1, len(reps), MultiSimulate, func(_, j int) Config {
		return Config{
			BlockSize: blockSize, CacheSize: cacheSize, Write: DelayedWrite,
			Replacement: reps[j], Seed: seed,
		}
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Replacement]*Result, len(reps))
	for j, rp := range reps {
		out[rp] = rs[0][j]
	}
	return out, nil
}

// FlushIntervalSweepTape runs ablation A2 over a tape: flush-back across
// a range of intervals, bracketed by write-through (interval → 0) and
// delayed-write (interval → ∞).
func FlushIntervalSweepTape(tape *xfer.Tape, blockSize, cacheSize int64, intervals []trace.Time) ([]*Result, error) {
	rs, err := grid(tape, 1, len(intervals), lruSweep, func(_, j int) Config {
		return Config{BlockSize: blockSize, CacheSize: cacheSize, Write: FlushBack, FlushInterval: intervals[j]}
	})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}
