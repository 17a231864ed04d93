package cachesim

// N-tier cache hierarchy simulation, the generalization of the
// two-level client/server network. The paper's diskless-workstation
// architecture is RAM over disk; modern replays of the same question
// add a flash tier in the middle (RAM over flash over disk), where two
// new costs appear: per-tier access latency and flash write endurance.
// This simulation replays the trace through an arbitrary stack of
// tiers — tier 0 is each machine's local cache, every lower tier is
// shared — and accounts blocks, busy time, and per-block write wear at
// every level.
//
// Traffic flows exactly as in the two-level case: a tier's read misses
// become reads against the tier below, its write policy's write-backs
// become writes below, and data-death purges are forwarded all the way
// down so no tier caches dead blocks. The bottom tier is the backing
// store (unbounded, usually "the disk"): everything arriving there is
// a real device I/O.

import (
	"fmt"
	"sort"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Tier describes one level of the hierarchy.
type Tier struct {
	// Name labels the tier in results ("client", "flash", "disk").
	Name string
	// Size is the tier's capacity in bytes. The final tier must be the
	// backing store (Size <= 0, unbounded); every other tier must have
	// a positive size. Tier 0 is per machine; the rest are shared.
	Size int64
	// Replacement and Seed configure the tier's eviction policy (any
	// member of the zoo).
	Replacement Replacement
	Seed        int64
	// Write is the tier's write policy toward the tier below;
	// FlushInterval applies to FlushBack. The backing store ignores
	// both.
	Write         WritePolicy
	FlushInterval trace.Time
	// ReadLatency and WriteLatency are the device's per-block service
	// times, used for busy-time accounting (zero means free).
	ReadLatency  trace.Time
	WriteLatency trace.Time
	// EnduranceWrites, if positive, is the per-block write budget of
	// the tier's media (flash wear-out); WearFraction reports against
	// it.
	EnduranceWrites int64
}

// HierarchyConfig parameterizes an N-tier simulation.
type HierarchyConfig struct {
	// BlockSize is shared by every tier.
	BlockSize int64
	// Tiers, top to bottom. At least two: one cache over one backing
	// store.
	Tiers []Tier
}

// TierResult reports one tier's traffic, busy time, and wear.
type TierResult struct {
	Name string
	Size int64
	// Reads and Writes count block operations arriving at this tier
	// from above (for tier 0: the logical accesses themselves).
	Reads  int64
	Writes int64
	// ReadMisses counts reads this tier could not serve and forwarded
	// down; Fills the blocks written into this tier by the resulting
	// fetches (equal to ReadMisses for caches, zero for the backing
	// store); WriteBacks the writes this tier's policy pushed down.
	ReadMisses int64
	Fills      int64
	WriteBacks int64
	// BusyTime is the tier's total device service time:
	// ReadLatency x Reads + WriteLatency x (Writes + Fills).
	BusyTime trace.Time
	// Wear statistics over the tier's media writes (incoming writes
	// plus fills), tracked for shared tiers only — tier 0 is
	// per-machine RAM, where endurance is not the question.
	MaxBlockWrites  int64
	MeanBlockWrites float64
	// WearFraction is MaxBlockWrites over the tier's EnduranceWrites
	// budget (zero when no budget is set).
	WearFraction float64
}

// HitRatio returns the fraction of arriving reads served by this tier.
func (t *TierResult) HitRatio() float64 {
	if t.Reads == 0 {
		return 0
	}
	return 1 - float64(t.ReadMisses)/float64(t.Reads)
}

// HierarchyResult reports an N-tier simulation, top to bottom.
type HierarchyResult struct {
	Config HierarchyConfig
	// ClientAccesses counts logical block accesses at tier 0.
	ClientAccesses int64
	Tiers          []TierResult
}

// NetworkBlocks returns the traffic crossing from the per-machine tier
// to the first shared tier: tier 0's read misses plus write-backs.
func (r *HierarchyResult) NetworkBlocks() int64 {
	return r.Tiers[0].ReadMisses + r.Tiers[0].WriteBacks
}

// DiskReads and DiskWrites report the backing store's device I/O.
func (r *HierarchyResult) DiskReads() int64  { return r.Tiers[len(r.Tiers)-1].Reads }
func (r *HierarchyResult) DiskWrites() int64 { return r.Tiers[len(r.Tiers)-1].Writes }

// EndToEndMissRatio returns backing-store I/Os per logical access.
func (r *HierarchyResult) EndToEndMissRatio() float64 {
	if r.ClientAccesses == 0 {
		return 0
	}
	return float64(r.DiskReads()+r.DiskWrites()) / float64(r.ClientAccesses)
}

// tierConfigs validates the hierarchy and builds each cache tier's
// simulator Config (the final, backing tier has none).
func (cfg *HierarchyConfig) tierConfigs() ([]Config, error) {
	if len(cfg.Tiers) < 2 {
		return nil, fmt.Errorf("cachesim: hierarchy needs at least two tiers (a cache over a backing store)")
	}
	out := make([]Config, len(cfg.Tiers)-1)
	for i, t := range cfg.Tiers {
		if i == len(cfg.Tiers)-1 {
			if t.Size > 0 {
				return nil, fmt.Errorf("cachesim: final tier %q must be the backing store (Size <= 0)", t.Name)
			}
			break
		}
		if t.Size <= 0 {
			return nil, fmt.Errorf("cachesim: tier %q: only the final tier may be unbounded", t.Name)
		}
		c := Config{
			BlockSize: cfg.BlockSize, CacheSize: t.Size,
			Write: t.Write, FlushInterval: t.FlushInterval,
			Replacement: t.Replacement, Seed: t.Seed,
		}
		if err := c.fill(); err != nil {
			return nil, fmt.Errorf("cachesim: tier %q: %v", t.Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// mergeResolved concatenates per-machine tape resolutions into the
// shared tiers' global ID space: machine m's dense block ID i becomes
// blockBase[m]+i, and likewise for file slots.
func mergeResolved(machineRes []*resolved, blockBase []int32, blockSize int64, nBlocks, nFiles int32) *resolved {
	merged := &resolved{
		blockSize:  blockSize,
		blockIdx:   make([]int64, 0, nBlocks),
		fileBlocks: make([][]int32, 0, nFiles),
	}
	for m, r := range machineRes {
		merged.blockIdx = append(merged.blockIdx, r.blockIdx...)
		for _, fb := range r.fileBlocks {
			global := make([]int32, len(fb))
			for i, id := range fb {
				global[i] = blockBase[m] + id
			}
			merged.fileBlocks = append(merged.fileBlocks, global)
		}
	}
	return merged
}

// replayTierOps drives a time-ordered operation stream into one shared
// cache tier. Read misses and write-backs surface through onDisk (they
// are this tier's traffic to the tier below); purges are applied and,
// when onPurge is non-nil, forwarded down as well. Writes arrive with
// their data, so a write miss needs no fetch.
func replayTierOps(ops []serverOp, r *resolved, cfg Config,
	onDisk func(id int32, write bool, t trace.Time),
	onPurge func(fs int32, size int64, t trace.Time)) *Result {
	c := newCache(&xfer.Tape{}, r, cfg)
	c.onDisk = onDisk
	for i := range ops {
		op := &ops[i]
		c.advance(op.time)
		switch op.kind {
		case opPurge:
			c.purge(op.fs, op.size)
			if onPurge != nil {
				onPurge(op.fs, op.size, op.time)
			}
		case opRead:
			c.res.LogicalAccesses++
			c.res.ReadAccesses++
			if c.f[op.id].resident {
				c.pol.access(op.id)
				continue
			}
			c.diskRead(op.id)
			c.insert(op.id)
		case opWrite:
			c.res.LogicalAccesses++
			c.res.WriteAccesses++
			if c.f[op.id].resident {
				c.pol.access(op.id)
			} else {
				c.insert(op.id)
			}
			c.markDirty(op.id)
		}
	}
	return c.finish()
}

// HierarchySimulateTapes replays one tape per machine through the tier
// stack. Tier 0 runs per machine on parallel workers; each shared
// tier then replays the tier above's traffic interleaved by time (ties
// broken in machine order, then emission order), so results are
// deterministic regardless of scheduling.
func HierarchySimulateTapes(tapes []*xfer.Tape, cfg HierarchyConfig) (*HierarchyResult, error) {
	if len(tapes) == 0 {
		return nil, fmt.Errorf("cachesim: hierarchy simulation needs at least one machine")
	}
	tierCfgs, err := cfg.tierConfigs()
	if err != nil {
		return nil, err
	}

	machineRes := make([]*resolved, len(tapes))
	runParallel(len(tapes), func(m int) error {
		machineRes[m] = resolvedFor(tapes[m], cfg.BlockSize)
		return nil
	})
	blockBase := make([]int32, len(tapes))
	fileBase := make([]int32, len(tapes))
	var nBlocks, nFiles int32
	for m, r := range machineRes {
		blockBase[m] = nBlocks
		fileBase[m] = nFiles
		nBlocks += int32(r.nBlocks())
		nFiles += int32(len(r.fileBlocks))
	}

	// Tier 0: every machine's private cache.
	passes := make([]*clientPass, len(tapes))
	runParallel(len(tapes), func(m int) error {
		passes[m] = runClient(tapes[m], machineRes[m], tierCfgs[0], blockBase[m], fileBase[m])
		return nil
	})

	res := &HierarchyResult{Config: cfg, Tiers: make([]TierResult, len(cfg.Tiers))}
	t0 := &res.Tiers[0]
	t0.Name, t0.Size = cfg.Tiers[0].Name, cfg.Tiers[0].Size
	var ops []serverOp
	for _, p := range passes {
		res.ClientAccesses += p.res.LogicalAccesses
		t0.Reads += p.res.ReadAccesses
		t0.Writes += p.res.WriteAccesses
		t0.ReadMisses += p.res.DiskReads
		t0.WriteBacks += p.res.DiskWrites
		ops = append(ops, p.ops...)
	}
	t0.Fills = t0.ReadMisses
	t0.BusyTime = cfg.Tiers[0].ReadLatency*trace.Time(t0.Reads) +
		cfg.Tiers[0].WriteLatency*trace.Time(t0.Writes+t0.Fills)

	merged := mergeResolved(machineRes, blockBase, cfg.BlockSize, nBlocks, nFiles)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].time < ops[j].time })

	// Shared cache tiers, top to bottom.
	for i := 1; i < len(cfg.Tiers)-1; i++ {
		tier := cfg.Tiers[i]
		tr := &res.Tiers[i]
		tr.Name, tr.Size = tier.Name, tier.Size
		wear := make([]int64, nBlocks)
		var next []serverOp
		out := replayTierOps(ops, merged, tierCfgs[i],
			func(id int32, write bool, t trace.Time) {
				kind := opRead
				if !write {
					// A fetch from below fills a block into this tier:
					// one media write here, one read below.
					wear[id]++
				} else {
					kind = opWrite
				}
				next = append(next, serverOp{time: t, kind: kind, id: id})
			},
			func(fs int32, size int64, t trace.Time) {
				next = append(next, serverOp{time: t, kind: opPurge, fs: fs, size: size})
			})
		for j := range ops {
			if ops[j].kind == opWrite {
				wear[ops[j].id]++
			}
		}
		tr.Reads, tr.Writes = out.ReadAccesses, out.WriteAccesses
		tr.ReadMisses, tr.WriteBacks = out.DiskReads, out.DiskWrites
		tr.Fills = out.DiskReads
		tr.BusyTime = tier.ReadLatency*trace.Time(tr.Reads) +
			tier.WriteLatency*trace.Time(tr.Writes+tr.Fills)
		tallyWear(tr, wear, tier.EnduranceWrites)
		sort.SliceStable(next, func(a, b int) bool { return next[a].time < next[b].time })
		ops = next
	}

	// Backing store: everything arriving is a device I/O.
	last := len(cfg.Tiers) - 1
	tier := cfg.Tiers[last]
	tr := &res.Tiers[last]
	tr.Name, tr.Size = tier.Name, tier.Size
	wear := make([]int64, nBlocks)
	for i := range ops {
		switch ops[i].kind {
		case opRead:
			tr.Reads++
		case opWrite:
			tr.Writes++
			wear[ops[i].id]++
		}
	}
	tr.BusyTime = tier.ReadLatency*trace.Time(tr.Reads) + tier.WriteLatency*trace.Time(tr.Writes)
	tallyWear(tr, wear, tier.EnduranceWrites)
	return res, nil
}

// tallyWear summarizes a tier's per-block media-write counts.
func tallyWear(tr *TierResult, wear []int64, endurance int64) {
	var written, total int64
	for _, w := range wear {
		if w == 0 {
			continue
		}
		written++
		total += w
		if w > tr.MaxBlockWrites {
			tr.MaxBlockWrites = w
		}
	}
	if written > 0 {
		tr.MeanBlockWrites = float64(total) / float64(written)
	}
	if endurance > 0 {
		tr.WearFraction = float64(tr.MaxBlockWrites) / float64(endurance)
	}
}

// HierarchySimulate builds one tape per machine trace and runs
// HierarchySimulateTapes.
func HierarchySimulate(machines [][]trace.Event, cfg HierarchyConfig) (*HierarchyResult, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cachesim: hierarchy simulation needs at least one machine")
	}
	tapes := make([]*xfer.Tape, len(machines))
	errs := make([]error, len(machines))
	runParallel(len(machines), func(m int) error {
		tapes[m], errs[m] = xfer.NewTape(machines[m])
		return nil
	})
	for m, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cachesim: machine %d trace malformed: %v", m, err)
		}
	}
	return HierarchySimulateTapes(tapes, cfg)
}
