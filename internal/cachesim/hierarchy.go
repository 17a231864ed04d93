package cachesim

// N-tier cache hierarchy simulation. The paper's introduction motivates
// the diskless workstation: each machine keeps a local block cache, and
// misses and (write-through) modifications travel over the network to
// one file server, whose own large cache stands in front of the disk.
// That network is the three-tier instance of this simulation —
// [write-through client, server, disk] — and answers both of the
// paper's questions at once ("how much network bandwidth is needed to
// support a diskless workstation?" and "how should disk block caches be
// organized?"): client hit ratios bound the network traffic, and the
// server cache bounds the disk traffic. Modern replays of the same
// question add a flash tier in the middle (RAM over flash over disk),
// where two new costs appear: per-tier access latency and flash write
// endurance. The simulation replays the trace through an arbitrary
// stack of tiers — tier 0 is each machine's local cache, every lower
// tier is shared — and accounts blocks, busy time, and per-block write
// wear at every level.
//
// A tier's read misses become reads against the tier below, its write
// policy's write-backs become writes below, and data-death purges are
// forwarded down through every cache tier so none caches dead blocks. The
// bottom tier is the backing store (unbounded, usually "the disk"):
// everything arriving there is a real device I/O, counted in place as
// the cache tier above emits it.

import (
	"fmt"

	"bsdtrace/internal/par"
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

// serverOp is one operation arriving at a shared tier. Block and file
// identities are in the shared tiers' global dense ID space (each
// machine's local IDs shifted by its base offset, so machines never
// collide — machine files are distinct by construction, as trace.Merge
// remaps them).
type serverOp struct {
	time trace.Time
	kind serverOpKind
	id   int32 // global block ID for opRead/opWrite
	fs   int32 // global file slot for opPurge
	size int64 // truncate purge boundary
}

type serverOpKind uint8

const (
	opRead serverOpKind = iota
	opWrite
	opPurge
)

// clientPass is one machine's contribution to the simulation: its tier-0
// cache counters and the traffic it sent to the tier below. Traffic
// bound for a shared cache tier is kept as ops, in emission order;
// traffic reaching the backing store directly is kept only as the
// store's per-block write counts (wear, in the machine's local IDs).
type clientPass struct {
	res  *Result
	ops  trace.Chunks[serverOp]
	wear []int64
}

// runClient replays one machine's tape through its tier-0 cache. Read
// misses, write-backs, and data-death purges become shared-tier
// operations, with blockBase and fileBase translating the machine's
// dense IDs into the global ID space; when overStore is set, tier 0 sits
// on the backing store and only the store's wear is tallied.
func runClient(tape *xfer.Tape, r *resolved, cfg Config, blockBase, fileBase int32, overStore bool) *clientPass {
	p := &clientPass{}
	c := newCache(tape, r, cfg)
	if overStore {
		p.wear = make([]int64, r.nBlocks())
		c.onDisk = storeWear(p.wear)
	} else {
		c.onDisk, c.onPurge = emitOps(&p.ops, blockBase, fileBase)
	}
	c.run()
	p.res = c.res
	return p
}

// emitOps returns the onDisk and onPurge hooks that append a cache
// tier's traffic to ops, shifting its block IDs by blockBase and its
// file slots by fileBase.
func emitOps(ops *trace.Chunks[serverOp], blockBase, fileBase int32) (func(id int32, write bool, t trace.Time), func(fs int32, size int64, t trace.Time)) {
	return func(id int32, write bool, t trace.Time) {
			kind := opRead
			if write {
				kind = opWrite
			}
			ops.Append(serverOp{time: t, kind: kind, id: blockBase + id})
		}, func(fs int32, size int64, t trace.Time) {
			ops.Append(serverOp{time: t, kind: opPurge, fs: fileBase + fs, size: size})
		}
}

// storeWear is the onDisk hook of the cache tier directly above the
// backing store. Only writes wear the store's media; its read and write
// counts are that tier's DiskReads and DiskWrites, and purges never
// reach it.
func storeWear(wear []int64) func(id int32, write bool, t trace.Time) {
	return func(id int32, write bool, _ trace.Time) {
		if write {
			wear[id]++
		}
	}
}

// runClients runs every machine's tier-0 cache on parallel workers. It
// returns the per-machine passes, the machines' tape resolutions merged
// into the shared tiers' global ID space, and, unless overStore is set,
// each machine's tier-0 traffic, in machine order, for the first shared
// tier to interleave.
func runClients(tapes []*xfer.Tape, blockSize int64, cfg Config, overStore bool) ([]*clientPass, *resolved, [][][]serverOp) {
	machineRes := make([]*resolved, len(tapes))
	par.Run(len(tapes), func(m int) error {
		machineRes[m] = resolvedFor(tapes[m], blockSize)
		return nil
	})
	// The shared tiers' resolution concatenates the machines': machine
	// m's local block ID i becomes global ID blockBase[m]+i (likewise
	// for file slots), and its per-file block lists are translated to
	// match, so purge boundaries resolve in global IDs.
	merged := &resolved{}
	blockBase := make([]int32, len(tapes))
	fileBase := make([]int32, len(tapes))
	for m, r := range machineRes {
		blockBase[m] = int32(merged.nBlocks())
		fileBase[m] = int32(len(merged.fileBlocks))
		merged.blockIdx = append(merged.blockIdx, r.blockIdx...)
		for _, fb := range r.fileBlocks {
			global := make([]int32, len(fb))
			for i, id := range fb {
				global[i] = blockBase[m] + id
			}
			merged.fileBlocks = append(merged.fileBlocks, global)
		}
	}

	passes := make([]*clientPass, len(tapes))
	par.Run(len(tapes), func(m int) error {
		passes[m] = runClient(tapes[m], machineRes[m], cfg, blockBase[m], fileBase[m], overStore)
		return nil
	})
	if overStore {
		return passes, merged, nil
	}
	lists := make([][][]serverOp, len(passes))
	for m, p := range passes {
		lists[m], p.ops = p.ops, nil
	}
	return passes, merged, lists
}

// replayTierOps drives operations into one shared cache tier: the ops of
// lists, each in time order, interleaved by time, ties broken in list
// order, then in order within a list. Every cache tier emits its traffic
// in time order, because the replay clock never moves backwards, so the
// machines' tier-0 lists feed the first shared tier with no sort and no
// merged copy, and a shared tier's one list feeds the next as emitted.
// Read misses and write-backs surface through onDisk (they are this
// tier's traffic to the tier below); purges are applied and, when
// onPurge is non-nil, forwarded down as well. Writes arrive with their
// data, so a write miss needs no fetch.
func replayTierOps(lists [][][]serverOp, r *resolved, cfg Config,
	onDisk func(id int32, write bool, t trace.Time),
	onPurge func(fs int32, size int64, t trace.Time)) *Result {
	c := newCache(&xfer.Tape{}, r, cfg)
	c.onDisk = onDisk
	trace.Interleave(lists, func(op *serverOp) trace.Time { return op.time }, func(_ int, op *serverOp) {
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
				return
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
	})
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

	last := len(cfg.Tiers) - 1
	passes, merged, lists := runClients(tapes, cfg.BlockSize, tierCfgs[0], last == 1)
	nBlocks := merged.nBlocks()

	// Tier 0: every machine's private cache.
	res := &HierarchyResult{Config: cfg, Tiers: make([]TierResult, len(cfg.Tiers))}
	t0 := &res.Tiers[0]
	t0.Name, t0.Size = cfg.Tiers[0].Name, cfg.Tiers[0].Size
	var storeWrites []int64
	for _, p := range passes {
		res.ClientAccesses += p.res.LogicalAccesses
		t0.Reads += p.res.ReadAccesses
		t0.Writes += p.res.WriteAccesses
		t0.ReadMisses += p.res.DiskReads
		t0.WriteBacks += p.res.DiskWrites
		storeWrites = append(storeWrites, p.wear...)
	}
	t0.Fills = t0.ReadMisses
	t0.BusyTime = cfg.Tiers[0].ReadLatency*trace.Time(t0.Reads) +
		cfg.Tiers[0].WriteLatency*trace.Time(t0.Writes+t0.Fills)

	// Shared cache tiers, top to bottom. Each emits its traffic in time
	// order, so it feeds the next shared tier as it stands; the last one
	// tallies the backing store in place.
	for i := 1; i < last; i++ {
		tier := cfg.Tiers[i]
		tr := &res.Tiers[i]
		tr.Name, tr.Size = tier.Name, tier.Size
		wear := make([]int64, nBlocks)
		var next trace.Chunks[serverOp]
		below, onPurge := emitOps(&next, 0, 0)
		if i == last-1 {
			storeWrites = make([]int64, nBlocks)
			below, onPurge = storeWear(storeWrites), nil
		}
		out := replayTierOps(lists, merged, tierCfgs[i],
			func(id int32, write bool, t trace.Time) {
				if !write {
					// A fetch from below fills a block into this tier:
					// one media write here, one read below.
					wear[id]++
				}
				below(id, write, t)
			}, onPurge)
		for _, ops := range lists {
			for _, chunk := range ops {
				for j := range chunk {
					if chunk[j].kind == opWrite {
						wear[chunk[j].id]++
					}
				}
			}
		}
		tr.Reads, tr.Writes = out.ReadAccesses, out.WriteAccesses
		tr.ReadMisses, tr.WriteBacks = out.DiskReads, out.DiskWrites
		tr.Fills = out.DiskReads
		tr.BusyTime = tier.ReadLatency*trace.Time(tr.Reads) +
			tier.WriteLatency*trace.Time(tr.Writes+tr.Fills)
		tallyWear(tr, wear, tier.EnduranceWrites)
		lists = [][][]serverOp{next}
	}

	// Backing store: everything the last cache tier sent down is a
	// device I/O.
	tier := cfg.Tiers[last]
	tr := &res.Tiers[last]
	tr.Name, tr.Size = tier.Name, tier.Size
	tr.Reads, tr.Writes = res.Tiers[last-1].ReadMisses, res.Tiers[last-1].WriteBacks
	tr.BusyTime = tier.ReadLatency*trace.Time(tr.Reads) + tier.WriteLatency*trace.Time(tr.Writes)
	tallyWear(tr, storeWrites, tier.EnduranceWrites)
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
