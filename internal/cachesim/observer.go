package cachesim

import (
	"slices"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// The dirty-set observer: the reliability side of the write-policy trade.
//
// The paper's Table VI weighs write policies only by disk traffic; the
// other half of the trade is what a crash would lose — every block that
// has been modified in the cache but not yet written back. An Observer
// receives exactly those lifecycle transitions during a replay, stamped
// with the simulated clock, so a consumer (internal/fault) can maintain a
// shadow dirty set with dirtied-since timestamps and answer "what would a
// crash at time t have lost?" without a second replay.
//
// Callback times are nondecreasing: the replay clock never moves
// backwards, and overdue flush-back scans execute at their scheduled
// times (see cache.advance), so a CleanFlushed notification carries the
// flush boundary the write actually happened at, not the time of the
// event that caught the clock up.

// CleanReason says why a dirty block ceased to be dirty.
type CleanReason uint8

const (
	// CleanFlushed: a flush-back scan wrote the block at a flush boundary.
	CleanFlushed CleanReason = iota
	// CleanWriteBack: the block was written back when it left the cache
	// (eviction, or the NoPurge ablation writing back dead blocks).
	CleanWriteBack
	// CleanDiscarded: the block's data died in the cache (unlink,
	// truncate, overwrite) and never reached the disk.
	CleanDiscarded
)

// String names the reason.
func (r CleanReason) String() string {
	switch r {
	case CleanFlushed:
		return "flushed"
	case CleanWriteBack:
		return "write-back"
	case CleanDiscarded:
		return "discarded"
	}
	return "clean-reason(?)"
}

// Observer receives the dirty-set lifecycle of one replay. BlockDirtied
// fires when a clean (or absent) block becomes dirty; BlockCleaned fires
// when a dirty block is written back or discarded. Under WriteThrough no
// block is ever dirty, so neither callback fires. Blocks still dirty when
// the trace ends get no final callback (they are the Result's DirtyAtEnd).
// Callbacks arrive in nondecreasing time order from a single goroutine.
type Observer interface {
	BlockDirtied(id int32, now trace.Time)
	BlockCleaned(id int32, now trace.Time, reason CleanReason)
}

// SimulateTapeObserved runs one cache simulation over a tape with an
// Observer attached. A nil observer makes it identical to SimulateTape.
func SimulateTapeObserved(tape *xfer.Tape, cfg Config, obs Observer) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := newCache(tape, resolvedFor(tape, cfg.BlockSize), cfg)
	c.obs = obs
	c.run()
	return c.finish(), nil
}

// MultiSimulateObserved is MultiSimulate with per-configuration
// observers: configuration i gets obs(i) attached (obs itself may be nil,
// and so may any value it returns). The observer factory is called before
// the parallel replay starts, in configuration order; each observer then
// sees only its own configuration's replay, single-goroutine.
func MultiSimulateObserved(tape *xfer.Tape, cfgs []Config, obs func(i int) Observer) ([]*Result, error) {
	filled := make([]Config, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.fill(); err != nil {
			return nil, err
		}
		filled[i] = cfg
	}
	observers := make([]Observer, len(cfgs))
	if obs != nil {
		for i := range observers {
			observers[i] = obs(i)
		}
	}
	// Sweeps list their configurations block-size-major, so resolving
	// on demand would park every worker on the first size's resolution.
	// Resolve each distinct size up front, concurrently.
	var sizes []int64
	for _, cfg := range filled {
		if !slices.Contains(sizes, cfg.BlockSize) {
			sizes = append(sizes, cfg.BlockSize)
		}
	}
	runParallel(len(sizes), func(i int) error {
		resolvedFor(tape, sizes[i])
		return nil
	})
	out := make([]*Result, len(cfgs))
	runParallel(len(filled), func(i int) error {
		c := newCache(tape, resolvedFor(tape, filled[i].BlockSize), filled[i])
		c.obs = observers[i]
		c.run()
		out[i] = c.finish()
		return nil
	})
	return out, nil
}
