package ffs

import (
	"fmt"

	"bsdtrace/internal/par"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// ReplayResult reports one population replay against one disk geometry.
type ReplayResult struct {
	// Final is the utilization when the trace ends.
	Final Usage
	// Failed counts allocations refused for lack of space (zero unless
	// the disk geometry is too small for the trace).
	Failed int64
}

// popOp is one step of a trace's file-population history: place (id is
// (re)allocated at size) or, with place false, free. The history is a
// pure function of the trace — no disk geometry enters into it — so one
// extraction serves every geometry a sweep replays.
type popOp struct {
	place bool
	id    trace.FileID
	size  int64
}

// populationOps extracts the file-population history of a trace: files
// are (re)sized at each close to the size the transfer reconstruction
// derives, at first sight (pre-existing files, at their size-at-open),
// and on truncate; unlinks free them. Closes that leave a file's size
// unchanged emit nothing.
func populationOps(src trace.Source) ([]popOp, error) {
	var ops []popOp
	sizes := make(map[trace.FileID]int64)
	place := func(id trace.FileID, size int64) {
		ops = append(ops, popOp{place: true, id: id, size: size})
		sizes[id] = size
	}
	sc := xfer.NewScanner()
	sc.OnOpenEnd = func(o xfer.OpenSummary) {
		if cur, ok := sizes[o.File]; ok && cur == o.SizeAtClose {
			return // unchanged
		}
		place(o.File, o.SizeAtClose)
	}
	feed := func(e trace.Event) error {
		switch e.Kind {
		case trace.KindOpen:
			// First sight of a pre-existing file: allocate it.
			if _, ok := sizes[e.File]; !ok && e.Size > 0 {
				place(e.File, e.Size)
			}
		case trace.KindTruncate:
			if sz, ok := sizes[e.File]; ok && sz != e.Size {
				place(e.File, e.Size)
			}
		case trace.KindUnlink:
			if _, ok := sizes[e.File]; ok {
				ops = append(ops, popOp{id: e.File})
				delete(sizes, e.File)
			}
		}
		sc.Feed(e)
		return nil
	}
	if err := trace.Each(src, feed); err != nil {
		return nil, err
	}
	sc.Finish()
	if errs := sc.Errs(); len(errs) > 0 {
		return nil, fmt.Errorf("ffs: malformed trace: %v", errs[0])
	}
	return ops, nil
}

// replayPop drives a population history against a fresh disk.
func replayPop(ops []popOp, geo Geometry) (*ReplayResult, error) {
	disk, err := NewDisk(geo)
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	files := make(map[trace.FileID]*File)
	for _, op := range ops {
		if !op.place {
			if f, ok := files[op.id]; ok {
				disk.Free(f)
				delete(files, op.id)
			}
			continue
		}
		f, err := disk.Realloc(files[op.id], op.size)
		if err != nil {
			res.Failed++
			delete(files, op.id)
			continue
		}
		files[op.id] = f
	}
	res.Final = disk.Usage()
	return res, nil
}

// WasteSweepRow is one block size's result in a waste sweep: the final
// allocated bytes and waste fraction with and without fragments.
type WasteSweepRow struct {
	BlockSize   int64
	FragWaste   float64 // waste fraction with FFS fragments
	NoFragWaste float64 // waste fraction with whole-block allocation
	FragAlloc   int64
	NoFragAlloc int64
	DataBytes   int64
}

// WasteSweep replays the trace across block sizes, with fragments (FFS
// style, 8 per block where the block size allows) and without (the old
// file system's whole-block allocation), reporting the internal
// fragmentation of each configuration. Each disk holds 1 GB in 16
// cylinder groups; a replay that runs out of space is an error. It is
// WasteSweepSource over a slice.
func WasteSweep(events []trace.Event, blockSizes []int64) ([]WasteSweepRow, error) {
	return WasteSweepSource(trace.NewSliceSource(events), blockSizes)
}

// WasteSweepSource runs the §6.3 experiment over an event stream. The
// population history is geometry-independent, so it is extracted from the
// stream once — one pass, no event materialization — and replayed against
// each of the sweep's disks, on parallel workers.
func WasteSweepSource(src trace.Source, blockSizes []int64) ([]WasteSweepRow, error) {
	ops, err := populationOps(src)
	if err != nil {
		return nil, err
	}
	// Replay 2i runs block size i with fragments, 2i+1 without. Errors
	// are kept per replay and reported in sweep order.
	res := make([]*ReplayResult, 2*len(blockSizes))
	errs := make([]error, len(res))
	par.Run(len(res), func(j int) error {
		bs := blockSizes[j/2]
		frag := bs
		if j%2 == 0 {
			frag = min(max(bs/8, 512), bs)
		}
		res[j], errs[j] = replayPop(ops, Geometry{BlockSize: bs, FragSize: frag, Groups: 16, BlocksPerGroup: int(64 << 20 / bs)})
		return nil
	})
	rows := make([]WasteSweepRow, 0, len(blockSizes))
	for i, bs := range blockSizes {
		for _, err := range errs[2*i : 2*i+2] {
			if err != nil {
				return nil, err
			}
		}
		withFrag, without := res[2*i], res[2*i+1]
		if withFrag.Failed > 0 || without.Failed > 0 {
			return nil, fmt.Errorf("ffs: disk too small at block size %d (%d failed allocations)",
				bs, withFrag.Failed+without.Failed)
		}
		rows = append(rows, WasteSweepRow{
			BlockSize:   bs,
			FragWaste:   withFrag.Final.WasteFraction,
			NoFragWaste: without.Final.WasteFraction,
			FragAlloc:   withFrag.Final.AllocatedBytes,
			NoFragAlloc: without.Final.AllocatedBytes,
			DataBytes:   withFrag.Final.DataBytes,
		})
	}
	return rows, nil
}
