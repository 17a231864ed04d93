package cachesim

import (
	"fmt"
	"sort"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// Two-level simulation: the diskless-workstation architecture the paper's
// introduction motivates. Each machine keeps a local block cache; misses
// and (write-through) modifications travel over the network to one file
// server, whose own large cache stands in front of the disk. The paper
// asks "how much network bandwidth is needed to support a diskless
// workstation?" and "how should disk block caches be organized?"; this
// simulation answers both at once: client hit ratios bound the network
// traffic, and the server cache bounds the disk traffic.
//
// Clients write through to the server (a client crash then loses nothing,
// which is why early network file systems made this choice); the server
// applies any of the usual write policies against its disk.

// TwoLevelConfig parameterizes the network.
type TwoLevelConfig struct {
	// BlockSize is shared by clients and server.
	BlockSize int64
	// ClientCache is each machine's local cache capacity; ServerCache
	// the file server's.
	ClientCache int64
	ServerCache int64
	// Write is the server's disk write policy (clients always write
	// through to the server); FlushInterval applies to FlushBack.
	Write         WritePolicy
	FlushInterval trace.Time
	// OnServerDisk, if non-nil, observes every server disk operation:
	// the block id in the server's global dense ID space, the direction,
	// and the simulated time. Flush-back write-backs carry their exact
	// flush-boundary times (see cache.advance).
	OnServerDisk func(id int32, write bool, t trace.Time)
}

// TwoLevelResult reports the network's behavior at every level.
type TwoLevelResult struct {
	Config TwoLevelConfig
	// ClientAccesses counts block accesses at the clients;
	// ClientReadMisses those that had to fetch from the server.
	ClientAccesses   int64
	ClientReadMisses int64
	// WriteForwards counts blocks written through to the server.
	WriteForwards int64
	// NetworkBlocks is the total blocks crossing the network:
	// ClientReadMisses + WriteForwards.
	NetworkBlocks int64
	// ServerDiskReads and ServerDiskWrites are the server's disk I/O.
	ServerDiskReads  int64
	ServerDiskWrites int64
}

// ClientHitRatio returns the fraction of client accesses served locally.
func (r *TwoLevelResult) ClientHitRatio() float64 {
	if r.ClientAccesses == 0 {
		return 0
	}
	return 1 - float64(r.NetworkBlocks)/float64(r.ClientAccesses)
}

// ServerDiskIOs returns the server's total disk operations.
func (r *TwoLevelResult) ServerDiskIOs() int64 { return r.ServerDiskReads + r.ServerDiskWrites }

// EndToEndMissRatio returns server disk I/Os per client block access: the
// fraction of logical accesses that reach a disk at all.
func (r *TwoLevelResult) EndToEndMissRatio() float64 {
	if r.ClientAccesses == 0 {
		return 0
	}
	return float64(r.ServerDiskIOs()) / float64(r.ClientAccesses)
}

// serverOp is one operation arriving at the server. Block and file
// identities are in the server's global dense ID space (each machine's
// local IDs shifted by its base offset, so machines never collide —
// machine files are distinct by construction, as trace.Merge remaps
// them).
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

// clientPass is one machine's contribution to the simulation: its local
// cache counters and the server traffic it generated, in emission order.
type clientPass struct {
	res *Result
	ops []serverOp
}

// runClient replays one machine's tape through a write-through client
// cache. Read misses, write-throughs, and data-death purges become
// server operations; blockBase and fileBase translate the machine's
// dense IDs into the server's global ID space.
func runClient(tape *xfer.Tape, r *resolved, cfg Config, blockBase, fileBase int32) *clientPass {
	p := &clientPass{}
	c := newCache(tape, r, cfg)
	c.onDisk = func(id int32, write bool, t trace.Time) {
		kind := opRead
		if write {
			kind = opWrite
		}
		p.ops = append(p.ops, serverOp{time: t, kind: kind, id: blockBase + id})
	}
	c.onPurge = func(fs int32, size int64, t trace.Time) {
		p.ops = append(p.ops, serverOp{time: t, kind: opPurge, fs: fileBase + fs, size: size})
	}
	c.run()
	p.res = c.res
	return p
}

// TwoLevelSimulateTapes runs one tape per machine through a local
// write-through client cache and forwards the resulting traffic to a
// shared server cache. The client passes run on parallel workers; the
// server replay interleaves their traffic by time, with ties broken in
// machine order (then emission order), so the result is deterministic
// regardless of worker scheduling.
func TwoLevelSimulateTapes(tapes []*xfer.Tape, cfg TwoLevelConfig) (*TwoLevelResult, error) {
	if len(tapes) == 0 {
		return nil, fmt.Errorf("cachesim: two-level simulation needs at least one machine")
	}
	clientCfg := Config{BlockSize: cfg.BlockSize, CacheSize: cfg.ClientCache, Write: WriteThrough}
	if err := clientCfg.fill(); err != nil {
		return nil, err
	}
	serverCfg := Config{
		BlockSize: cfg.BlockSize, CacheSize: cfg.ServerCache,
		Write: cfg.Write, FlushInterval: cfg.FlushInterval,
	}
	if err := serverCfg.fill(); err != nil {
		return nil, err
	}

	// Resolve every machine's tape and lay the machines' dense block and
	// file IDs end to end: machine m's local ID i becomes global ID
	// blockBase[m]+i at the server.
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

	// Pass 1: each client runs its own cache.
	passes := make([]*clientPass, len(tapes))
	runParallel(len(tapes), func(m int) error {
		passes[m] = runClient(tapes[m], machineRes[m], clientCfg, blockBase[m], fileBase[m])
		return nil
	})

	res := &TwoLevelResult{Config: cfg}
	var ops []serverOp
	for _, p := range passes {
		res.ClientAccesses += p.res.LogicalAccesses
		res.ClientReadMisses += p.res.DiskReads
		res.WriteForwards += p.res.DiskWrites
		ops = append(ops, p.ops...)
	}
	res.NetworkBlocks = res.ClientReadMisses + res.WriteForwards

	// Pass 2: replay the interleaved server traffic into the server
	// cache. The server's "resolution" is the machines' concatenated:
	// per-block file indices for purge boundaries and per-file sorted
	// block lists, all in global IDs. Writes arrive with their data (the
	// client has the block), so a server write miss needs no disk read.
	srvRes := mergeResolved(machineRes, blockBase, cfg.BlockSize, nBlocks, nFiles)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].time < ops[j].time })
	sres := replayServer(ops, srvRes, serverCfg, cfg.OnServerDisk)
	res.ServerDiskReads = sres.DiskReads
	res.ServerDiskWrites = sres.DiskWrites
	return res, nil
}

// replayServer drives the time-ordered server traffic into the server
// cache: the single-shared-tier instance of replayTierOps (the server
// is the bottom cache, so purges are not forwarded anywhere).
func replayServer(ops []serverOp, r *resolved, cfg Config, onDisk func(id int32, write bool, t trace.Time)) *Result {
	return replayTierOps(ops, r, cfg, onDisk, nil)
}

// TwoLevelSimulate builds one tape per machine trace and runs
// TwoLevelSimulateTapes.
func TwoLevelSimulate(machines [][]trace.Event, cfg TwoLevelConfig) (*TwoLevelResult, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cachesim: two-level simulation needs at least one machine")
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
	return TwoLevelSimulateTapes(tapes, cfg)
}
