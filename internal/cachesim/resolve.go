package cachesim

import (
	"cmp"
	"slices"
	"sort"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// resolved is a tape's block-level view at one block size: every
// (file, block index) pair touched by any transfer is assigned a dense
// integer ID, in first-touch order, and each transfer's accesses are
// flattened into one shared ID array. Replaying a configuration then
// needs no hashing at all — the cache is an array indexed by block ID —
// and the resolution is computed once per (tape, block size) and shared
// read-only by every configuration at that size (see Tape.Memo).
type resolved struct {
	// blockIdx gives each dense block ID's block index within its file.
	blockIdx []int64
	// accessIDs[accessOff[i]:accessOff[i+1]] are the block IDs touched
	// by tape transfer i, in access order.
	accessOff []int64
	accessIDs []int32
	// fileBlocks lists each file slot's block IDs sorted ascending by
	// block index, so a purge scans only the doomed suffix — in a
	// deterministic order, unlike a map walk.
	fileBlocks [][]int32
	// opFile is parallel to the tape's ops: the file slot of an OpPurge,
	// or -1 when the purged file has no blocks on the tape at all (then
	// the purge cannot touch any cache).
	opFile []int32
}

// nBlocks returns the number of distinct blocks the tape references.
func (r *resolved) nBlocks() int { return len(r.blockIdx) }

// blockKey identifies one block of one file.
type blockKey struct {
	file trace.FileID
	idx  int64
}

// fileIndex maps one file's block indices to dense IDs during
// resolution: a dense window over the range the file's blocks cluster
// in, with far outliers kept in the resolution's shared map instead. A
// block joins the window when the window, grown to cover it, would stay
// at least about half full, so the index's memory is proportional to the
// blocks touched however large the offsets (foreign traces reach 2^56
// bytes).
type fileIndex struct {
	base   int64   // block index of window[0]
	window []int32 // dense ID of block base+k, or nilID
	n      int64   // distinct blocks, window and far
	nFar   int64
}

// windowSlack is how far past twice its block count a window may
// stretch: small files stay dense whatever their offsets.
const windowSlack = 16

// at returns the dense ID the window holds for block idx, or nilID.
func (x *fileIndex) at(idx int64) int32 {
	if k := idx - x.base; k >= 0 && k < int64(len(x.window)) {
		return x.window[k]
	}
	return nilID
}

// add records block idx, not yet in the index, under dense ID id. It
// reports whether the block went to the far map.
func (x *fileIndex) add(idx int64, id int32) (isFar bool) {
	x.n++
	if len(x.window) == 0 {
		x.base = idx
	}
	end := x.base + int64(len(x.window))
	lo, hi := min(x.base, idx), max(end-1, idx)
	if hi-lo+1 > 2*x.n+windowSlack {
		x.nFar++
		return true
	}
	if lo < x.base {
		// Grow downward with as much headroom again as the window
		// holds, so descending access costs amortized O(1) per block.
		newBase := max(lo-int64(len(x.window)), 0)
		w := make([]int32, end-newBase)
		for k := range w[:x.base-newBase] {
			w[k] = nilID
		}
		copy(w[x.base-newBase:], x.window)
		x.window, x.base = w, newBase
	}
	for x.base+int64(len(x.window)) <= idx {
		x.window = append(x.window, nilID)
	}
	x.window[idx-x.base] = id
	return false
}

// resolveTape computes the dense block-level view of a tape at one block
// size. blockSize must be positive.
func resolveTape(t *xfer.Tape, blockSize int64) *resolved {
	// The flattened access count is pure arithmetic over the transfers, so
	// accessIDs can be sized exactly up front.
	var nAccess int64
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		nAccess += (tr.End()-1)/blockSize - tr.Offset/blockSize + 1
	}
	r := &resolved{
		accessOff: make([]int64, len(t.Transfers)+1),
		accessIDs: make([]int32, 0, nAccess),
	}
	// One file lookup per transfer; the blocks within it index the
	// file's window directly.
	fileSlots := make(map[trace.FileID]int32)
	var files []fileIndex
	var far map[blockKey]int32
	for i := range t.Transfers {
		tr := &t.Transfers[i]
		first := tr.Offset / blockSize
		last := (tr.End() - 1) / blockSize
		if first <= last {
			fs, ok := fileSlots[tr.File]
			if !ok {
				fs = int32(len(files))
				fileSlots[tr.File] = fs
				files = append(files, fileIndex{})
			}
			x := &files[fs]
			for idx := first; idx <= last; idx++ {
				id := x.at(idx)
				if id == nilID && x.nFar > 0 {
					if v, ok := far[blockKey{tr.File, idx}]; ok {
						id = v
					}
				}
				if id == nilID {
					id = int32(len(r.blockIdx))
					r.blockIdx = append(r.blockIdx, idx)
					if x.add(idx, id) {
						if far == nil {
							far = make(map[blockKey]int32)
						}
						far[blockKey{tr.File, idx}] = id
					}
				}
				r.accessIDs = append(r.accessIDs, id)
			}
		}
		r.accessOff[i+1] = int64(len(r.accessIDs))
	}

	// Per-file block lists: each window is already in block order; a
	// file with far blocks needs a sort.
	r.fileBlocks = make([][]int32, len(files))
	for fs := range files {
		x := &files[fs]
		ids := make([]int32, 0, x.n)
		for _, id := range x.window {
			if id != nilID {
				ids = append(ids, id)
			}
		}
		r.fileBlocks[fs] = ids
	}
	for k, id := range far {
		fs := fileSlots[k.file]
		r.fileBlocks[fs] = append(r.fileBlocks[fs], id)
	}
	for fs := range files {
		if files[fs].nFar > 0 {
			slices.SortFunc(r.fileBlocks[fs], func(a, b int32) int { return cmp.Compare(r.blockIdx[a], r.blockIdx[b]) })
		}
	}

	r.opFile = make([]int32, len(t.Ops))
	for i := range t.Ops {
		r.opFile[i] = -1
		if t.Ops[i].Kind == xfer.OpPurge {
			if fs, ok := fileSlots[t.Ops[i].File]; ok {
				r.opFile[i] = fs
			}
		}
	}
	return r
}

// doomed returns the block IDs of file slot fs whose byte range starts
// at or beyond size at blockSize, in ascending block order: those with
// idx*blockSize >= size, i.e. idx >= ceil(size/blockSize), a suffix of
// the sorted list. Size 0 dooms the whole file.
func (r *resolved) doomed(fs int32, size, blockSize int64) []int32 {
	ids := r.fileBlocks[fs]
	bound := (size + blockSize - 1) / blockSize
	lo := 0
	if bound > 0 {
		lo = sort.Search(len(ids), func(k int) bool { return r.blockIdx[ids[k]] >= bound })
	}
	return ids[lo:]
}

// resolvedFor returns the tape's resolution at blockSize, memoized on
// the tape so concurrent configurations share one copy.
func resolvedFor(t *xfer.Tape, blockSize int64) *resolved {
	return t.Memo(blockSize, func() any { return resolveTape(t, blockSize) }).(*resolved)
}
