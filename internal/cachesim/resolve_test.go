package cachesim

import (
	"reflect"
	"runtime"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// naiveResolve assigns dense IDs the obvious way: one map lookup per
// block access, IDs in first-touch order.
func naiveResolve(t *xfer.Tape, blockSize int64) (ids []int32, blockIdx []int64) {
	seen := map[blockKey]int32{}
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		for idx := tr.Offset / blockSize; idx <= (tr.End()-1)/blockSize; idx++ {
			id, ok := seen[blockKey{tr.File, idx}]
			if !ok {
				id = int32(len(blockIdx))
				seen[blockKey{tr.File, idx}] = id
				blockIdx = append(blockIdx, idx)
			}
			ids = append(ids, id)
		}
	}
	return ids, blockIdx
}

// transferTape builds a tape of bare transfers (file, offset, length).
func transferTape(xfers ...xfer.Transfer) *xfer.Tape {
	tape := &xfer.Tape{}
	for i, tr := range xfers {
		tr.Time = trace.Time(i)
		tape.Transfers = append(tape.Transfers, tr)
		tape.OldSizes = append(tape.OldSizes, 0)
		tape.Ops = append(tape.Ops, xfer.Op{Kind: xfer.OpTransfer, Time: tr.Time, Xfer: int32(i)})
	}
	return tape
}

// TestResolveMatchesNaive: the windowed resolution assigns the same IDs,
// in the same first-touch order, as a per-block map, and lists each
// file's blocks in ascending order — across dense runs, descending
// access, and far-flung offsets.
func TestResolveMatchesNaive(t *testing.T) {
	const bs = 4096
	tape := transferTape(
		xfer.Transfer{File: 1, Offset: 40 * bs, Length: 3 * bs},
		xfer.Transfer{File: 2, Offset: 0, Length: 10},
		xfer.Transfer{File: 1, Offset: 0, Length: 2 * bs},     // below the window
		xfer.Transfer{File: 1, Offset: 1 << 50, Length: bs},   // far
		xfer.Transfer{File: 1, Offset: 1<<50 - bs, Length: 1}, // far, descending
		xfer.Transfer{File: 2, Offset: 30 * bs, Length: bs},   // far from a 1-block window
		xfer.Transfer{File: 2, Offset: bs, Length: 5 * bs},
		xfer.Transfer{File: 1, Offset: 35 * bs, Length: 7 * bs},
		xfer.Transfer{File: 3, Offset: 90 * bs, Length: bs},
		xfer.Transfer{File: 3, Offset: 80 * bs, Length: bs},
		xfer.Transfer{File: 3, Offset: 70 * bs, Length: bs},
		xfer.Transfer{File: 3, Offset: 60 * bs, Length: 11 * bs},
		xfer.Transfer{File: 1, Offset: 1 << 50, Length: 2 * bs},
	)
	r := resolveTape(tape, bs)
	ids, blockIdx := naiveResolve(tape, bs)
	if !reflect.DeepEqual(r.accessIDs, ids) {
		t.Errorf("access IDs\n got %v\nwant %v", r.accessIDs, ids)
	}
	if !reflect.DeepEqual(r.blockIdx, blockIdx) {
		t.Errorf("block indices\n got %v\nwant %v", r.blockIdx, blockIdx)
	}
	total := 0
	for fs, fb := range r.fileBlocks {
		total += len(fb)
		for k := 1; k < len(fb); k++ {
			if r.blockIdx[fb[k-1]] >= r.blockIdx[fb[k]] {
				t.Errorf("file slot %d blocks not ascending: %v", fs, fb)
				break
			}
		}
	}
	if total != r.nBlocks() {
		t.Errorf("file lists hold %d blocks, want %d", total, r.nBlocks())
	}
}

// TestResolveFarOffsetMemory: a transfer at offset 2^50 resolves in a
// few small allocations, not a table spanning the offset.
func TestResolveFarOffsetMemory(t *testing.T) {
	tape := transferTape(
		xfer.Transfer{File: 7, Offset: 0, Length: 4096},
		xfer.Transfer{File: 7, Offset: 1 << 50, Length: 3 * 4096},
		xfer.Transfer{File: 8, Offset: 1 << 50, Length: 4096},
	)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(1, func() { resolveTape(tape, 1024) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call and one measured call.
	perCall := (after.TotalAlloc - before.TotalAlloc) / 2
	if allocs > 40 || perCall > 16<<10 {
		t.Errorf("resolving 3 transfers at offset 2^50: %v allocations, %d bytes", allocs, perCall)
	}
	if r := resolveTape(tape, 1024); r.nBlocks() != 4+12+4 {
		t.Errorf("resolved %d blocks, want 20", r.nBlocks())
	}
}
