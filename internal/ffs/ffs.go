// Package ffs implements the 4.2 BSD Fast File System's disk allocation
// scheme — full blocks plus block fragments — at the level of detail the
// paper's §6.3 discussion needs.
//
// The paper observes a tension: large blocks are attractive for the cache
// (Table VII) but waste disk space on small files, and then notes that the
// FFS design resolves it: "a scheme like the one in 4.2 BSD, which uses
// multiple block sizes on disk to avoid wasted space for small files,
// works well in conjunction with a fixed-block-size cache." This package
// makes that remark quantitative: a disk is divided into cylinder groups;
// a file's data occupies whole blocks except for its tail, which is packed
// into a run of contiguous fragments (at most 8 per block, as in FFS)
// shared with other files' tails. Replaying a trace's file population
// against the allocator measures internal fragmentation as a function of
// block size, with and without fragments (see WasteSweep).
package ffs

import (
	"errors"
	"fmt"
	"slices"
)

// Geometry describes a simulated disk.
type Geometry struct {
	// BlockSize is the full block size in bytes; FragSize divides it
	// evenly (FFS allows 1, 2, 4, or 8 fragments per block). Setting
	// FragSize == BlockSize disables sub-block allocation, modeling the
	// old file system the FFS design replaced.
	BlockSize int64
	FragSize  int64
	// Groups and BlocksPerGroup size the disk: cylinder groups spread
	// allocations so related data stays together and free space stays
	// spread out.
	Groups         int
	BlocksPerGroup int
}

// Validate checks the geometry's internal consistency.
func (g Geometry) Validate() error {
	if g.BlockSize <= 0 || g.FragSize <= 0 {
		return errors.New("ffs: block and fragment sizes must be positive")
	}
	if g.BlockSize%g.FragSize != 0 {
		return fmt.Errorf("ffs: block size %d not a multiple of fragment size %d", g.BlockSize, g.FragSize)
	}
	if n := g.BlockSize / g.FragSize; n > 8 {
		return fmt.Errorf("ffs: %d fragments per block exceeds the FFS maximum of 8", n)
	}
	if g.Groups <= 0 || g.BlocksPerGroup <= 0 {
		return errors.New("ffs: need at least one cylinder group with at least one block")
	}
	return nil
}

// Capacity returns the disk's data capacity in bytes.
func (g Geometry) Capacity() int64 {
	return int64(g.Groups) * int64(g.BlocksPerGroup) * g.BlockSize
}

// ErrNoSpace is returned when an allocation cannot be satisfied.
var ErrNoSpace = errors.New("ffs: out of space")

// fragRange addresses a run of fragments within one block: a global
// fragment index plus a count.
type fragRange struct {
	start int64
	count int64
}

// File is an allocated file's on-disk footprint.
type File struct {
	size   int64   // logical bytes
	blocks []int64 // full block indexes
	tail   fragRange
}

// group bookkeeping: the wholly free blocks, which are the fresh blocks
// (never handed out) plus a stack of the blocks freed since, and the
// partially used blocks whose free fragments can hold tails, filed by
// their longest run of free fragments — the role of the cylinder-group
// free-run summary (cg_frsum) in FFS. A free block comes off the freed
// stack first, then from the fresh blocks in ascending order: the order
// one stack pre-filled with every block, lowest on top, gives, without
// an entry per block.
type group struct {
	// nextFresh is the group's lowest fresh block, as an offset from its
	// first block; every block from there on is fresh.
	nextFresh int64
	freed     []int64 // blocks freed since, handed out before any fresh one
	// partial[r] lists the blocks whose longest free run is r fragments
	// (0 < r < fragments per block).
	partial [][]int64
}

// Disk is the allocator state.
type Disk struct {
	geo      Geometry
	fragsPer int64 // fragments per block
	bitmap   []uint64
	used     []int8  // used fragment count per block
	slot     []int32 // a partial block's position in its group's run list; nil without fragments
	groups   []group

	freeFrags int64
	dataBytes int64 // logical bytes stored
	allocated int64 // fragment bytes allocated
	nextGroup int
}

// NewDisk creates an empty disk.
func NewDisk(geo Geometry) (*Disk, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	fragsPer := geo.BlockSize / geo.FragSize
	totalBlocks := int64(geo.Groups) * int64(geo.BlocksPerGroup)
	d := &Disk{
		geo:       geo,
		fragsPer:  fragsPer,
		bitmap:    make([]uint64, (totalBlocks*fragsPer+63)/64),
		used:      make([]int8, totalBlocks),
		groups:    make([]group, geo.Groups),
		freeFrags: totalBlocks * fragsPer,
	}
	if fragsPer > 1 {
		// Only a disk with fragments has partial blocks to file.
		d.slot = make([]int32, totalBlocks)
	}
	for g := range d.groups {
		d.groups[g].partial = make([][]int64, fragsPer)
	}
	return d, nil
}

func (d *Disk) isFree(frag int64) bool {
	return d.bitmap[frag/64]&(1<<(frag%64)) == 0
}

func (d *Disk) groupOf(block int64) *group {
	return &d.groups[block/int64(d.geo.BlocksPerGroup)]
}

// setRange marks a fragment range used or free and maintains the per-block
// counters and group indexes.
func (d *Disk) setRange(r fragRange, use bool) {
	block := r.start / d.fragsPer
	g := d.groupOf(block)
	wasUsed := d.used[block]
	if wasUsed != 0 && wasUsed != int8(d.fragsPer) {
		d.unfile(g, block)
	}
	for f, end := r.start, r.start+r.count; f < end; {
		lo := f % 64
		n := 64 - lo
		if end-f < n {
			n = end - f
		}
		mask := (^uint64(0) >> (64 - n)) << lo
		if use {
			d.bitmap[f/64] |= mask
		} else {
			d.bitmap[f/64] &^= mask
		}
		f += n
	}
	if use {
		d.used[block] += int8(r.count)
		d.freeFrags -= r.count
	} else {
		d.used[block] -= int8(r.count)
		d.freeFrags += r.count
	}
	nowUsed := d.used[block]
	switch {
	case nowUsed == 0:
		if wasUsed != 0 {
			g.freed = append(g.freed, block)
		}
	case nowUsed != int8(d.fragsPer):
		run := d.longestRun(block)
		d.slot[block] = int32(len(g.partial[run]))
		g.partial[run] = append(g.partial[run], block)
	}
}

// unfile removes partially used block b from its group's run list; the
// list's last block takes its place.
func (d *Disk) unfile(g *group, b int64) {
	r := d.longestRun(b)
	list := g.partial[r]
	last := list[len(list)-1]
	d.slot[last] = d.slot[b]
	list[d.slot[b]] = last
	g.partial[r] = list[:len(list)-1]
}

// longestRun returns the length of block b's longest run of free
// fragments.
func (d *Disk) longestRun(b int64) int64 {
	start := b * d.fragsPer
	var best, run int64
	for i := int64(0); i < d.fragsPer; i++ {
		if !d.isFree(start + i) {
			run = 0
			continue
		}
		if run++; run > best {
			best = run
		}
	}
	return best
}

// popFreeBlock takes a wholly free block, preferring the given group:
// its most recently freed block, else its lowest fresh one. A block is
// pushed when it becomes wholly free and leaves that state only through
// this pop, because tails go into partially used blocks, so every freed
// entry is free.
func (d *Disk) popFreeBlock(pref int) (int64, bool) {
	per := int64(d.geo.BlocksPerGroup)
	for gi := 0; gi < d.geo.Groups; gi++ {
		gn := (pref + gi) % d.geo.Groups
		g := &d.groups[gn]
		if n := len(g.freed); n > 0 {
			b := g.freed[n-1]
			g.freed = g.freed[:n-1]
			return b, true
		}
		if g.nextFresh < per {
			b := int64(gn)*per + g.nextFresh
			g.nextFresh++
			return b, true
		}
	}
	return 0, false
}

// runInBlock finds a run of n contiguous free fragments inside block b,
// returning its start or -1.
func (d *Disk) runInBlock(b, n int64) int64 {
	start := b * d.fragsPer
	run, runStart := int64(0), int64(-1)
	for i := int64(0); i < d.fragsPer; i++ {
		if d.isFree(start + i) {
			if runStart < 0 {
				runStart = start + i
			}
			run++
			if run >= n {
				return runStart
			}
		} else {
			run, runStart = 0, -1
		}
	}
	return -1
}

// allocTail places n fragments, preferring partially used blocks (so tails
// pack together, the FFS policy) and falling back to breaking a free block.
// Within a group it takes the best fit: the last block filed under the
// shortest longest-free-run that holds n, so placement is deterministic.
func (d *Disk) allocTail(pref int, n int64) (fragRange, bool) {
	for gi := 0; gi < d.geo.Groups; gi++ {
		g := &d.groups[(pref+gi)%d.geo.Groups]
		for r := n; r < d.fragsPer; r++ {
			if list := g.partial[r]; len(list) > 0 {
				b := list[len(list)-1]
				return fragRange{start: d.runInBlock(b, n), count: n}, true
			}
		}
	}
	if b, ok := d.popFreeBlock(pref); ok {
		return fragRange{start: b * d.fragsPer, count: n}, true
	}
	return fragRange{}, false
}

// Free releases a file's space.
func (d *Disk) Free(f *File) {
	if f != nil {
		d.resize(f, 0)
	}
}

// Realloc resizes a file in place and returns it; a nil file is
// allocated afresh. The file keeps its full-block prefix: only surplus
// blocks and the old tail are freed, and only the missing blocks and the
// new tail are allocated, the way FFS extends a file. If the new size
// cannot be placed, the file ends freed and ErrNoSpace is returned.
func (d *Disk) Realloc(f *File, size int64) (*File, error) {
	if size < 0 {
		return nil, fmt.Errorf("ffs: negative size %d", size)
	}
	if f == nil {
		f = &File{}
	}
	if !d.resize(f, size) {
		return nil, ErrNoSpace
	}
	return f, nil
}

// resize changes f's footprint to hold size bytes, reporting false (with
// f freed) if the disk cannot place it.
func (d *Disk) resize(f *File, size int64) bool {
	d.dataBytes -= f.size
	d.allocated -= d.footprint(f)
	full := size / d.geo.BlockSize
	d.release(f, full)
	f.size = size
	ok := d.extend(f, full)
	if !ok {
		d.release(f, 0)
		f.size = 0
	}
	d.dataBytes += f.size
	d.allocated += d.footprint(f)
	return ok
}

// release frees f's tail and its full blocks beyond the first full.
func (d *Disk) release(f *File, full int64) {
	if f.tail.count > 0 {
		d.setRange(f.tail, false)
		f.tail = fragRange{}
	}
	for int64(len(f.blocks)) > full {
		last := len(f.blocks) - 1
		d.setRange(d.blockRange(f.blocks[last]), false)
		f.blocks = f.blocks[:last]
	}
}

// extend allocates the full blocks f lacks, up to full, and the tail its
// size needs, preferring the next cylinder group in rotation.
func (d *Disk) extend(f *File, full int64) bool {
	tailFrags := (f.size%d.geo.BlockSize + d.geo.FragSize - 1) / d.geo.FragSize
	if int64(len(f.blocks)) == full && tailFrags == 0 {
		return true
	}
	pref := d.nextGroup
	d.nextGroup = (d.nextGroup + 1) % d.geo.Groups
	for int64(len(f.blocks)) < full {
		b, ok := d.popFreeBlock(pref)
		if !ok {
			return false
		}
		d.setRange(d.blockRange(b), true)
		f.blocks = append(f.blocks, b)
	}
	if tailFrags == 0 {
		return true
	}
	tail, ok := d.allocTail(pref, tailFrags)
	if ok {
		d.setRange(tail, true)
		f.tail = tail
	}
	return ok
}

// blockRange addresses every fragment of block b.
func (d *Disk) blockRange(b int64) fragRange {
	return fragRange{start: b * d.fragsPer, count: d.fragsPer}
}

// footprint returns the bytes f's blocks and tail occupy.
func (d *Disk) footprint(f *File) int64 {
	return (int64(len(f.blocks))*d.fragsPer + f.tail.count) * d.geo.FragSize
}

// Usage is a snapshot of disk utilization.
type Usage struct {
	// Capacity is the disk's data capacity; DataBytes the logical bytes
	// stored; AllocatedBytes the fragment bytes consumed.
	Capacity       int64
	DataBytes      int64
	AllocatedBytes int64
	FreeBytes      int64
	// WasteFraction is internal fragmentation: allocated bytes beyond
	// the logical data, as a fraction of allocated bytes.
	WasteFraction float64
	// FreeBlockFraction is the fraction of free fragments that form
	// whole free blocks — when it drops, large files can no longer be
	// placed even though space remains (external fragmentation).
	FreeBlockFraction float64
}

// Usage computes the current utilization snapshot.
func (d *Disk) Usage() Usage {
	u := Usage{
		Capacity:       d.geo.Capacity(),
		DataBytes:      d.dataBytes,
		AllocatedBytes: d.allocated,
		FreeBytes:      d.freeFrags * d.geo.FragSize,
	}
	if d.allocated > 0 {
		u.WasteFraction = float64(d.allocated-d.dataBytes) / float64(d.allocated)
	}
	var freeBlockFrags int64
	for b := range d.used {
		if d.used[b] == 0 {
			freeBlockFrags += d.fragsPer
		}
	}
	if d.freeFrags > 0 {
		u.FreeBlockFraction = float64(freeBlockFrags) / float64(d.freeFrags)
	}
	return u
}

// checkInvariants verifies the bitmap, counters, and accounting agree; it
// is used by tests.
func (d *Disk) checkInvariants() error {
	var usedFrags int64
	for b := range d.used {
		count := int8(0)
		start := int64(b) * d.fragsPer
		for i := int64(0); i < d.fragsPer; i++ {
			if !d.isFree(start + i) {
				count++
			}
		}
		if count != d.used[b] {
			return fmt.Errorf("block %d: counter %d != bitmap %d", b, d.used[b], count)
		}
		usedFrags += int64(count)
	}
	total := int64(len(d.used)) * d.fragsPer
	if d.freeFrags != total-usedFrags {
		return fmt.Errorf("freeFrags %d != %d", d.freeFrags, total-usedFrags)
	}
	if d.allocated != usedFrags*d.geo.FragSize {
		return fmt.Errorf("allocated %d != used frag bytes %d", d.allocated, usedFrags*d.geo.FragSize)
	}
	filed := 0
	for gi := range d.groups {
		for r, list := range d.groups[gi].partial {
			for i, b := range list {
				if d.slot[b] != int32(i) || d.longestRun(b) != int64(r) || d.groupOf(b) != &d.groups[gi] {
					return fmt.Errorf("block %d misfiled at group %d run %d slot %d", b, gi, r, i)
				}
			}
			filed += len(list)
		}
	}
	partial := 0
	for _, n := range d.used {
		if n != 0 && n != int8(d.fragsPer) {
			partial++
		}
	}
	if filed != partial {
		return fmt.Errorf("%d blocks filed in the run lists, %d partially used", filed, partial)
	}
	// Every wholly free block is on its group's freed stack or fresh,
	// once, and nothing else is.
	per := int64(d.geo.BlocksPerGroup)
	listed := make([]bool, len(d.used))
	for gi := range d.groups {
		g := &d.groups[gi]
		free := slices.Clone(g.freed)
		for b := int64(gi)*per + g.nextFresh; b < int64(gi+1)*per; b++ {
			free = append(free, b)
		}
		for _, b := range free {
			if listed[b] || d.used[b] != 0 || d.groupOf(b) != g {
				return fmt.Errorf("block %d listed free in group %d: twice, in use or in another group", b, gi)
			}
			listed[b] = true
		}
	}
	for b, n := range d.used {
		if n == 0 && !listed[b] {
			return fmt.Errorf("free block %d is on no free list", b)
		}
	}
	return nil
}
