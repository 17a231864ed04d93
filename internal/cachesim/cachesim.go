// Package cachesim implements the trace-driven disk block cache simulator
// of Section 6 of the paper.
//
// The simulated cache holds fixed-size blocks of file data, replaced LRU
// (other policies are available as ablations). Reconstructed transfers are
// divided into block accesses; a referenced block absent from the cache
// costs a disk read unless the access is about to overwrite the block's
// every valid byte, and modified blocks cost disk writes according to the
// write policy:
//
//   - write-through: every modification writes the block to disk at once;
//   - flush-back: the cache is scanned at a fixed interval and every block
//     modified since the last scan is written (the paper evaluates 30-second
//     and 5-minute intervals; the classic UNIX sync daemon is the 30-second
//     point);
//   - delayed-write: a dirty block is written only when it is ejected.
//
// Unlinks, truncations, and overwriting creates purge the dead blocks from
// the cache; a dirty block that dies in the cache never reaches the disk at
// all, which is the mechanism behind the paper's headline result that large
// delayed-write caches eliminate most write traffic.
//
// The principal metric is the miss ratio: disk I/O operations divided by
// logical block accesses (paper §6.1).
//
// # The transfer tape
//
// Reconstructing transfers from the event stream costs as much as
// simulating them, and the paper's evaluation replays the same trace into
// dozens of configurations (four write policies × six cache sizes in
// Table VI alone). The simulator therefore runs off an xfer.Tape: the
// transfer stream plus its interleaved control operations, materialized
// once per trace. Transfers are expressed in bytes, so one tape serves
// every block size; per block size the tape is "resolved" once into dense
// integer block IDs (shared read-only by all configurations at that
// size), and each configuration replays array-indexed — no event
// scanning, no hashing. MultiSimulate runs many configurations over one
// tape on parallel workers; Simulate remains as the convenience wrapper
// that builds a throwaway tape from raw events.
//
// # Frames
//
// A replay keeps one frame per dense block ID in a single slice: the
// residency and dirty bits, the time the block entered the cache, and
// the replacement policy's list links. The links are block IDs, not
// pointers, so the slice is pointer-free (the garbage collector neither
// scans it nor runs write barriers on it) and a replay allocates nothing
// per block. Every policy list — LRU's recency list, FIFO, Clock's ring,
// the SLRU and TinyLFU segments, LIRS's queue — threads through those
// links. History of departed blocks (ARC's B1/B2, 2Q's A1out, LIRS's
// ghost FIFO) threads through them too: a ghost is never resident, so it
// can reuse the frame's links, and the frame's segment byte says which
// list it is on. LIRS keeps its stack S in a per-ID array beside the
// frames.
//
// Flush-back scans write blocks in the order they were dirtied. Each
// scan candidate records the block ID and the dirty episode it was
// appended for, so a candidate whose block has since been evicted (and
// perhaps re-inserted and re-dirtied, appending a fresh candidate) is
// skipped rather than flushed out of order.
package cachesim

import (
	"fmt"
	"math"
	"sort"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// WritePolicy selects when modified blocks are written to disk.
type WritePolicy uint8

// Write policies (paper §6.2).
const (
	WriteThrough WritePolicy = iota
	FlushBack
	DelayedWrite
)

// String names the policy as the paper's Table VI does.
func (p WritePolicy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case FlushBack:
		return "flush-back"
	case DelayedWrite:
		return "delayed-write"
	}
	return "write-policy(?)"
}

// UnixCacheSize is the paper's "typical 4.2 BSD" configuration: about 10%
// of a VAX's main memory, 390 kbytes.
const UnixCacheSize = 390 * 1024

// Config parameterizes one simulation.
type Config struct {
	// BlockSize is the cache block size in bytes (paper default 4096).
	BlockSize int64
	// CacheSize is the cache capacity in bytes; the block count is
	// CacheSize/BlockSize, rounded down, minimum one block.
	CacheSize int64
	// Write is the write policy; FlushInterval applies to FlushBack.
	Write         WritePolicy
	FlushInterval trace.Time
	// Replacement selects the eviction policy (default LRU, as in the
	// paper).
	Replacement Replacement
	// Seed feeds the Random replacement policy.
	Seed int64
	// SimulatePaging approximates program loading by forcing a
	// whole-file read of each executed file at exec time (Figure 7).
	SimulatePaging bool
	// NoPurge disables the removal of dead blocks on unlink, truncate,
	// and overwrite; dirty dead blocks then get written at eviction as
	// if they were live. Ablation A4: how much of delayed-write's win is
	// death-before-ejection?
	NoPurge bool
	// BillAtStart bills each transfer at the beginning of its run
	// (the open or previous seek) instead of the paper's choice of the
	// ending event. Ablation A3: sensitivity to the no-read-write time
	// imprecision.
	BillAtStart bool
	// ResidencyThreshold is the residency cutoff reported by
	// Result.ResidencyOver (paper §6.2 reports blocks resident longer
	// than 20 minutes). Default 20 minutes.
	ResidencyThreshold trace.Time
}

func (c *Config) fill() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("cachesim: block size %d must be positive", c.BlockSize)
	}
	if c.CacheSize <= 0 {
		return fmt.Errorf("cachesim: cache size %d must be positive", c.CacheSize)
	}
	if c.Replacement >= numReplacements {
		return fmt.Errorf("cachesim: unknown replacement policy %d", c.Replacement)
	}
	if c.Write == FlushBack && c.FlushInterval <= 0 {
		return fmt.Errorf("cachesim: flush-back needs a positive interval")
	}
	if c.Write != FlushBack && c.FlushInterval != 0 {
		// A stray interval on a non-flushing policy is a config mixup
		// (most likely a sweep reusing a flush-back Config); accepting it
		// silently would let two configs that look different simulate
		// identically.
		return fmt.Errorf("cachesim: %v takes no flush interval (got %v)", c.Write, c.FlushInterval)
	}
	if c.ResidencyThreshold <= 0 {
		c.ResidencyThreshold = 20 * trace.Minute
	}
	return nil
}

// Result is the outcome of one simulation.
type Result struct {
	Config Config
	// LogicalAccesses counts block accesses; ReadAccesses and
	// WriteAccesses split them by direction.
	LogicalAccesses int64
	ReadAccesses    int64
	WriteAccesses   int64
	// DiskReads counts block fetches from disk; DiskWrites counts block
	// write-backs (or write-throughs).
	DiskReads  int64
	DiskWrites int64
	// Evictions counts capacity evictions; Purged counts blocks removed
	// because their data died; DirtyDiscarded counts purged blocks that
	// were dirty — writes the disk never saw.
	Evictions      int64
	Purged         int64
	DirtyDiscarded int64
	// DirtyAtEnd counts blocks still dirty when the trace ended.
	DirtyAtEnd int64
	// Residency is the CDF of block cache residency times in seconds
	// (blocks still cached at the end contribute their elapsed
	// residency). ResidencyOver is the fraction resident longer than
	// Config.ResidencyThreshold.
	Residency     stats.CDF
	ResidencyOver float64
}

// DiskIOs returns the total disk operations.
func (r *Result) DiskIOs() int64 { return r.DiskReads + r.DiskWrites }

// MissRatio returns disk I/Os per logical block access (paper §6.1), or 0
// for an empty trace.
func (r *Result) MissRatio() float64 {
	if r.LogicalAccesses == 0 {
		return 0
	}
	return float64(r.DiskIOs()) / float64(r.LogicalAccesses)
}

// WriteFraction returns the fraction of logical accesses that were writes
// (the paper observes about one third).
func (r *Result) WriteFraction() float64 {
	if r.LogicalAccesses == 0 {
		return 0
	}
	return float64(r.WriteAccesses) / float64(r.LogicalAccesses)
}

// NeverWrittenFraction returns the fraction of dirtied blocks whose data
// died in the cache and so never reached the disk. Blocks still dirty at
// the end of the trace count as eventual writes, so a big cache cannot
// claim credit merely for outliving the trace. The paper reports about
// 75% for a 16-Mbyte delayed-write cache.
func (r *Result) NeverWrittenFraction() float64 {
	total := r.DirtyDiscarded + r.DiskWrites + r.DirtyAtEnd
	if total == 0 {
		return 0
	}
	return float64(r.DirtyDiscarded) / float64(total)
}

// nilID marks the absence of a block ID: an empty list end, or no
// victim.
const nilID int32 = -1

// segNone tags a frame on no policy list.
const segNone uint8 = 0

// frame is one block ID's replay state. The cache owns enteredAt, epoch,
// resident and dirty; the replacement policy owns the links, seg and ref
// (see the package comment).
type frame struct {
	enteredAt trace.Time
	// prev and next link the frame into one policy list (nilID ends).
	prev, next int32
	// epoch counts the block's flush-back dirty episodes.
	epoch    uint32
	resident bool
	dirty    bool
	// seg tags which of its policy's lists the frame is on.
	seg uint8
	// ref is Clock's reference bit.
	ref bool
}

// dirtyEntry is a flush-back scan candidate: a block and the dirty
// episode it was appended for.
type dirtyEntry struct {
	id    int32
	epoch uint32
}

// cache is the live replay state of one configuration over one resolved
// tape.
type cache struct {
	cfg      Config
	tape     *xfer.Tape
	r        *resolved
	capacity int
	res      *Result

	// f holds one frame per dense block ID; f[id].resident is the cache
	// directory.
	f   []frame
	pol replacer
	// dirties are flush-back scan candidates in the order they were
	// dirtied; a scan flushes the entries whose block is still in the
	// episode they were appended for. Maintained only under FlushBack.
	dirties []dirtyEntry

	now trace.Time
	// nextFlush is the next flush-back scan's time (never, for the
	// other write policies).
	nextFlush trace.Time
	// onDisk observes every disk operation (used by the two-level
	// simulation, where a client's "disk" is the server).
	onDisk func(id int32, write bool, t trace.Time)
	// onPurge observes every purge of a file slot with blocks on the
	// tape (the two-level client pass forwards them to the server).
	onPurge func(fs int32, size int64, t trace.Time)
	// obs observes the dirty-set lifecycle (used by the crash-injection
	// layer in internal/fault). Nil for plain simulations.
	obs Observer

	// residency counts drops per residency bucket (see residencyBucket);
	// resMax is the longest residency seen in the overflow bucket.
	residency [numResidencyBuckets]int64
	resMax    trace.Time
	resOver   int64
	resTotal  int64
}

func newCache(tape *xfer.Tape, r *resolved, cfg Config) *cache {
	capacity := int(cfg.CacheSize / cfg.BlockSize)
	if capacity < 1 {
		capacity = 1
	}
	c := &cache{
		cfg:      cfg,
		tape:     tape,
		r:        r,
		capacity: capacity,
		res:      &Result{Config: cfg},
		f:        make([]frame, r.nBlocks()),
		pol:      newReplacer(cfg.Replacement, capacity, cfg.Seed),
	}
	c.pol.bind(c.f, nil)
	c.nextFlush = math.MaxInt64 // no scans
	if cfg.Write == FlushBack {
		c.nextFlush = cfg.FlushInterval
	}
	return c
}

// advance moves the clock forward, running any flush-back scans that came
// due. Overdue scans execute at their scheduled times, in order, before
// the clock catches up to t: a scan due at 30 s that is only discovered
// by an event at 100 s still writes its blocks at clock 30 s, so onDisk
// timestamps and crash-loss windows are exact. The clock never moves
// backwards (the BillAtStart ablation can present slightly out-of-order
// times; they are processed at the current clock).
func (c *cache) advance(t trace.Time) {
	if t >= c.nextFlush {
		c.flush(t)
	}
	if t > c.now {
		c.now = t
	}
}

// flush runs the flush-back scans due at or before t, each writing the
// dirty blocks in the order they were dirtied.
func (c *cache) flush(t trace.Time) {
	for c.nextFlush <= t {
		if c.nextFlush > c.now {
			c.now = c.nextFlush
		}
		for _, e := range c.dirties {
			if fr := &c.f[e.id]; fr.dirty && fr.epoch == e.epoch {
				fr.dirty = false
				c.diskWrite(e.id)
				if c.obs != nil {
					c.obs.BlockCleaned(e.id, c.now, CleanFlushed)
				}
			}
		}
		c.dirties = c.dirties[:0]
		c.nextFlush += c.cfg.FlushInterval
	}
}

func (c *cache) recordResidency(d trace.Time) {
	i := residencyBucket(d)
	c.residency[i]++
	if i == numResidencyBuckets-1 && d > c.resMax {
		c.resMax = d
	}
	c.resTotal++
	if d > c.cfg.ResidencyThreshold {
		c.resOver++
	}
}

// diskWrite and diskRead count disk operations and notify the onDisk
// observer.
func (c *cache) diskWrite(id int32) {
	c.res.DiskWrites++
	if c.onDisk != nil {
		c.onDisk(id, true, c.now)
	}
}

func (c *cache) diskRead(id int32) {
	c.res.DiskReads++
	if c.onDisk != nil {
		c.onDisk(id, false, c.now)
	}
}

// drop removes a block from the cache. If writeBack is true and the
// block is dirty it costs a disk write; otherwise a dirty block is
// discarded and counted in DirtyDiscarded.
func (c *cache) drop(id int32, writeBack bool) {
	fr := &c.f[id]
	if fr.dirty {
		if writeBack {
			c.diskWrite(id)
			if c.obs != nil {
				c.obs.BlockCleaned(id, c.now, CleanWriteBack)
			}
		} else {
			c.res.DirtyDiscarded++
			if c.obs != nil {
				c.obs.BlockCleaned(id, c.now, CleanDiscarded)
			}
		}
		fr.dirty = false
	}
	c.recordResidency(c.now - fr.enteredAt)
	fr.resident = false
	c.pol.remove(id)
}

// purge removes every cached block of the file slot whose byte range
// starts at or beyond size (size 0 purges the whole file), in ascending
// block order. Dirty purged blocks are dead data and cost no disk write.
func (c *cache) purge(fs int32, size int64) {
	if c.cfg.NoPurge || fs < 0 {
		return
	}
	ids := c.r.fileBlocks[fs]
	// Doomed blocks satisfy idx*blockSize >= size, i.e. idx >=
	// ceil(size/blockSize); they form a suffix of the sorted ID list.
	bound := (size + c.cfg.BlockSize - 1) / c.cfg.BlockSize
	lo := 0
	if bound > 0 {
		lo = sort.Search(len(ids), func(k int) bool { return c.r.blockIdx[ids[k]] >= bound })
	}
	for _, id := range ids[lo:] {
		if c.f[id].resident {
			c.res.Purged++
			c.drop(id, false)
		}
	}
}

// insert adds a block, evicting victims while the cache is full.
func (c *cache) insert(id int32) {
	for c.pol.len() >= c.capacity {
		v := c.pol.victim()
		if v == nilID {
			break
		}
		c.res.Evictions++
		c.drop(v, true)
	}
	fr := &c.f[id]
	fr.resident = true
	fr.enteredAt = c.now
	c.pol.insert(id)
}

// markDirty applies the write policy to a modified block.
func (c *cache) markDirty(id int32) {
	if c.cfg.Write == WriteThrough {
		c.diskWrite(id)
		return
	}
	fr := &c.f[id]
	if !fr.dirty {
		fr.dirty = true
		if c.cfg.Write == FlushBack {
			fr.epoch++
			c.dirties = append(c.dirties, dirtyEntry{id: id, epoch: fr.epoch})
		}
		if c.obs != nil {
			c.obs.BlockDirtied(id, c.now)
		}
	}
}

// transfer simulates the block accesses of tape transfer xi.
func (c *cache) transfer(xi int32) {
	t := &c.tape.Transfers[xi]
	when := t.Time
	if c.cfg.BillAtStart {
		when = t.Start
	}
	c.advance(when)

	ids := c.r.accessIDs[c.r.accessOff[xi]:c.r.accessOff[xi+1]]
	n := int64(len(ids))
	c.res.LogicalAccesses += n
	if t.Write {
		c.res.WriteAccesses += n
	} else {
		c.res.ReadAccesses += n
	}
	bs := c.cfg.BlockSize
	oldSize := c.tape.OldSizes[xi]
	for _, id := range ids {
		if c.f[id].resident {
			c.pol.access(id)
			if t.Write {
				c.markDirty(id)
			}
			continue
		}
		// Miss. A read always fetches. A write fetches only if the
		// block holds valid bytes outside the written range: the run
		// covers [t.Offset, t.End()) and bytes beyond oldSize are not
		// valid data, so a full-block overwrite or an append into
		// fresh space needs no read (paper §6.1).
		fetch := true
		if t.Write {
			blockStart := c.r.blockIdx[id] * bs
			blockEnd := blockStart + bs
			headValid := t.Offset > blockStart && oldSize > blockStart
			tailValid := t.End() < blockEnd && oldSize > t.End()
			fetch = headValid || tailValid
		}
		if fetch {
			c.diskRead(id)
		}
		c.insert(id)
		if t.Write {
			c.markDirty(id)
		}
	}
}

// run replays the whole tape.
func (c *cache) run() {
	ops := c.tape.Ops
	for i := range ops {
		op := &ops[i]
		c.advance(op.Time)
		switch op.Kind {
		case xfer.OpPurge:
			fs := c.r.opFile[i]
			c.purge(fs, op.Size)
			if c.onPurge != nil && fs >= 0 {
				c.onPurge(fs, op.Size, op.Time)
			}
		case xfer.OpTransfer:
			c.transfer(op.Xfer)
		case xfer.OpExec:
			if c.cfg.SimulatePaging {
				c.transfer(op.Xfer)
			}
		}
	}
}

// finish closes out the simulation, recording residency for blocks still
// cached and counting blocks still dirty.
func (c *cache) finish() *Result {
	for i := range c.f {
		fr := &c.f[i]
		if !fr.resident {
			continue
		}
		if fr.dirty {
			c.res.DirtyAtEnd++
		}
		c.recordResidency(c.now - fr.enteredAt)
	}
	c.res.Residency = residencyCDF(&c.residency, c.resMax)
	if c.resTotal > 0 {
		c.res.ResidencyOver = float64(c.resOver) / float64(c.resTotal)
	}
	return c.res
}

func simulateResolved(tape *xfer.Tape, r *resolved, cfg Config) *Result {
	c := newCache(tape, r, cfg)
	c.run()
	return c.finish()
}

// SimulateTape runs one cache simulation by replaying a transfer tape.
// The per-block-size resolution is memoized on the tape, so repeated
// calls (and MultiSimulate sweeps) against one tape share it.
func SimulateTape(tape *xfer.Tape, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return simulateResolved(tape, resolvedFor(tape, cfg.BlockSize), cfg), nil
}

// MultiSimulate replays one tape into every configuration, sharded
// across parallel workers, and returns the results in configuration
// order. Each result is identical to what Simulate would produce on the
// tape's source events: replay order is fixed by the tape, so worker
// count and scheduling cannot affect any result. All configurations are
// validated before any work starts.
func MultiSimulate(tape *xfer.Tape, cfgs []Config) ([]*Result, error) {
	return MultiSimulateObserved(tape, cfgs, nil)
}

// Simulate runs one cache simulation over a time-ordered trace. It is
// the single-configuration convenience wrapper around SimulateTape; to
// run several configurations over one trace, build the tape once with
// xfer.NewTape and use MultiSimulate.
func Simulate(events []trace.Event, cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	tape, err := xfer.NewTape(events)
	if err != nil {
		return nil, fmt.Errorf("cachesim: malformed trace: %v", err)
	}
	return simulateResolved(tape, resolveTape(tape, cfg.BlockSize), cfg), nil
}

// CountBlockAccesses returns the number of logical block accesses a trace
// generates at the given block size — the "no cache" column of the paper's
// Table VII.
func CountBlockAccesses(events []trace.Event, blockSize int64, simulatePaging bool) (int64, error) {
	if blockSize <= 0 {
		return 0, fmt.Errorf("cachesim: block size %d must be positive", blockSize)
	}
	tape, err := xfer.NewTape(events)
	if err != nil {
		return 0, fmt.Errorf("cachesim: malformed trace: %v", err)
	}
	return CountTapeAccesses(tape, blockSize, simulatePaging), nil
}

// CountTapeAccesses returns the number of logical block accesses a tape
// generates at the given block size — pure arithmetic over the
// transfers, no simulation.
func CountTapeAccesses(tape *xfer.Tape, blockSize int64, simulatePaging bool) int64 {
	var n int64
	for i := range tape.Ops {
		op := &tape.Ops[i]
		if op.Kind == xfer.OpTransfer || (op.Kind == xfer.OpExec && simulatePaging) {
			t := &tape.Transfers[op.Xfer]
			if t.Length <= 0 {
				// xfer.NewTape never emits an empty run (see the tape
				// invariant test there), but the span arithmetic below
				// would count one access for a zero-length run whose
				// (End-1)/blockSize truncates into Offset's block, so
				// guard against hand-built tapes.
				continue
			}
			n += (t.End()-1)/blockSize - t.Offset/blockSize + 1
		}
	}
	return n
}
