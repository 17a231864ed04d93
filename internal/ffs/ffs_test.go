package ffs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
)

func mustDisk(t *testing.T, geo Geometry) *Disk {
	t.Helper()
	d, err := NewDisk(geo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var smallGeo = Geometry{BlockSize: 4096, FragSize: 512, Groups: 2, BlocksPerGroup: 16}

func TestGeometryValidate(t *testing.T) {
	cases := map[string]Geometry{
		"zeroBlock":    {FragSize: 512, Groups: 1, BlocksPerGroup: 1},
		"zeroFrag":     {BlockSize: 4096, Groups: 1, BlocksPerGroup: 1},
		"notMultiple":  {BlockSize: 4096, FragSize: 1000, Groups: 1, BlocksPerGroup: 1},
		"tooManyFrags": {BlockSize: 8192, FragSize: 512, Groups: 1, BlocksPerGroup: 1},
		"noGroups":     {BlockSize: 4096, FragSize: 512, BlocksPerGroup: 1},
	}
	for name, geo := range cases {
		if err := geo.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := smallGeo.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	if got := smallGeo.Capacity(); got != 2*16*4096 {
		t.Errorf("Capacity = %d", got)
	}
}

func TestAllocAccounting(t *testing.T) {
	d := mustDisk(t, smallGeo)
	// 5000 bytes = 1 full block + 2 fragments (5000-4096=904 -> 2x512).
	f, err := d.Realloc(nil, 5000)
	if err != nil {
		t.Fatal(err)
	}
	full, tail := len(f.blocks), f.tail.count
	if full != 1 || tail != 2 {
		t.Errorf("footprint = %d blocks + %d frags, want 1+2", full, tail)
	}
	u := d.Usage()
	if u.DataBytes != 5000 {
		t.Errorf("DataBytes = %d", u.DataBytes)
	}
	if u.AllocatedBytes != 4096+1024 {
		t.Errorf("AllocatedBytes = %d, want 5120", u.AllocatedBytes)
	}
	wantWaste := float64(5120-5000) / 5120
	if u.WasteFraction != wantWaste {
		t.Errorf("WasteFraction = %v, want %v", u.WasteFraction, wantWaste)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	d.Free(f)
	u = d.Usage()
	if u.DataBytes != 0 || u.AllocatedBytes != 0 || u.FreeBytes != smallGeo.Capacity() {
		t.Errorf("after free: %+v", u)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizeFile(t *testing.T) {
	d := mustDisk(t, smallGeo)
	f, err := d.Realloc(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full, tail := len(f.blocks), f.tail.count; full != 0 || tail != 0 {
		t.Errorf("zero-size footprint: %d+%d", full, tail)
	}
	d.Free(f)
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeSize(t *testing.T) {
	d := mustDisk(t, smallGeo)
	if _, err := d.Realloc(nil, -1); err == nil {
		t.Errorf("negative size accepted")
	}
}

func TestTailsShareBlocks(t *testing.T) {
	d := mustDisk(t, smallGeo)
	// Four 512-byte files should pack into one block's fragments.
	for i := 0; i < 4; i++ {
		if _, err := d.Realloc(nil, 512); err != nil {
			t.Fatal(err)
		}
	}
	u := d.Usage()
	if u.AllocatedBytes != 4*512 {
		t.Errorf("AllocatedBytes = %d, want 2048", u.AllocatedBytes)
	}
	// All four tails share one block, so only one block is partially
	// used: free fragments outside it all form whole blocks.
	freeBlocks := (smallGeo.Capacity() - 4096) / 4096 * 4096
	wantFrac := float64(freeBlocks/512) / float64((smallGeo.Capacity()-2048)/512)
	if u.FreeBlockFraction < wantFrac-1e-9 {
		t.Errorf("FreeBlockFraction = %v, want >= %v (tails should pack)", u.FreeBlockFraction, wantFrac)
	}
}

func TestNoFragmentsMode(t *testing.T) {
	geo := smallGeo
	geo.FragSize = geo.BlockSize
	d := mustDisk(t, geo)
	f, err := d.Realloc(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	u := d.Usage()
	if u.AllocatedBytes != 4096 {
		t.Errorf("whole-block mode allocated %d for 100 bytes", u.AllocatedBytes)
	}
	d.Free(f)
}

func TestOutOfSpace(t *testing.T) {
	d := mustDisk(t, smallGeo) // 128 KB
	if _, err := d.Realloc(nil, smallGeo.Capacity()+1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize alloc: %v", err)
	}
	// The failed allocation must not leak space.
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Usage().AllocatedBytes != 0 {
		t.Errorf("failed alloc leaked space")
	}
	// Fill the disk exactly, then overflow.
	f, err := d.Realloc(nil, smallGeo.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Realloc(nil, 1); !errors.Is(err, ErrNoSpace) {
		t.Errorf("overfull alloc: %v", err)
	}
	d.Free(f)
	if _, err := d.Realloc(nil, 1); err != nil {
		t.Errorf("alloc after free: %v", err)
	}
}

func TestRealloc(t *testing.T) {
	d := mustDisk(t, smallGeo)
	f, err := d.Realloc(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	f, err = d.Realloc(f, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if f.size != 10000 || d.Usage().DataBytes != 10000 {
		t.Errorf("realloc grow wrong: %+v", d.Usage())
	}
	f, err = d.Realloc(f, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Usage().AllocatedBytes != 512 {
		t.Errorf("realloc shrink allocated %d", d.Usage().AllocatedBytes)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Realloc from nil behaves like Alloc.
	if _, err := d.Realloc(nil, 100); err != nil {
		t.Errorf("Realloc(nil): %v", err)
	}

	// Resizing is in place: the same file keeps its full-block prefix.
	g, err := d.Realloc(nil, 3*4096+100)
	if err != nil {
		t.Fatal(err)
	}
	prefix := append([]int64(nil), g.blocks...)
	if h, err := d.Realloc(g, 5*4096+700); err != nil || h != g {
		t.Fatalf("grow returned %p, %v; want the same file %p", h, err, g)
	}
	if !slices.Equal(g.blocks[:3], prefix) {
		t.Errorf("grow to 5 blocks moved the prefix: blocks %v, prefix %v", g.blocks, prefix)
	}
	if _, err := d.Realloc(g, 2*4096); err != nil {
		t.Fatal(err)
	}
	if full, tail := len(g.blocks), g.tail.count; full != 2 || tail != 0 || !slices.Equal(g.blocks, prefix[:2]) {
		t.Errorf("shrink to 2 blocks: %d+%d frags, blocks %v, prefix %v", full, tail, g.blocks, prefix)
	}
	// A resize the disk cannot satisfy leaves the file freed.
	if _, err := d.Realloc(g, smallGeo.Capacity()); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversize resize: %v", err)
	}
	if u := d.Usage(); g.size != 0 || u.AllocatedBytes != 2*512 || u.DataBytes != 2*100 {
		t.Errorf("failed resize left a %d-byte file and %+v; want it freed", g.size, u)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeHarmless(t *testing.T) {
	d := mustDisk(t, smallGeo)
	f, err := d.Realloc(nil, 3000)
	if err != nil {
		t.Fatal(err)
	}
	d.Free(f)
	d.Free(f) // second free is a no-op
	d.Free(nil)
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Usage().AllocatedBytes != 0 {
		t.Errorf("double free corrupted accounting")
	}
}

// Property: any sequence of random allocs, in-place resizes and frees
// keeps the bitmap, counters, fragment index and byte accounting
// consistent, and the live files' footprints tile exactly the used
// fragments: none is shared, none leaks.
func TestAllocFreeInvariants(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := NewDisk(Geometry{BlockSize: 4096, FragSize: 512, Groups: 4, BlocksPerGroup: 32})
		if err != nil {
			return false
		}
		var live []*File
		for _, op := range ops {
			size := int64(op) * 37 % 30000
			switch {
			case op%3 == 0 && len(live) > 0:
				i := rng.Intn(len(live))
				d.Free(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case op%3 == 1 && len(live) > 0:
				i := rng.Intn(len(live))
				file, err := d.Realloc(live[i], size)
				if err == nil {
					live[i] = file
					break
				}
				if !errors.Is(err, ErrNoSpace) || live[i].size != 0 {
					return false
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				file, err := d.Realloc(nil, size)
				if err == nil {
					live = append(live, file)
				} else if !errors.Is(err, ErrNoSpace) {
					return false
				}
			}
		}
		if err := d.checkInvariants(); err != nil {
			t.Log(err)
			return false
		}
		if err := checkFootprints(d, live); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// checkFootprints verifies that the live files' blocks and tails cover
// exactly the disk's used fragments, each once, and that the disk's byte
// accounting is the sum of the files'.
func checkFootprints(d *Disk, live []*File) error {
	owned := make([]bool, int64(len(d.used))*d.fragsPer)
	var allocated, data int64
	claim := func(r fragRange) error {
		for f := r.start; f < r.start+r.count; f++ {
			if owned[f] {
				return fmt.Errorf("fragment %d allocated twice", f)
			}
			owned[f] = true
		}
		allocated += r.count * d.geo.FragSize
		return nil
	}
	for _, file := range live {
		data += file.size
		for _, b := range file.blocks {
			if err := claim(fragRange{start: b * d.fragsPer, count: d.fragsPer}); err != nil {
				return err
			}
		}
		if err := claim(file.tail); err != nil {
			return err
		}
		want := file.size/d.geo.BlockSize*d.geo.BlockSize +
			(file.size%d.geo.BlockSize+d.geo.FragSize-1)/d.geo.FragSize*d.geo.FragSize
		if got := d.footprint(file); got != want {
			return fmt.Errorf("file of %d bytes occupies %d bytes, want %d", file.size, got, want)
		}
	}
	for f, o := range owned {
		if o == d.isFree(int64(f)) {
			return fmt.Errorf("fragment %d: owned %v but bitmap free %v", f, o, d.isFree(int64(f)))
		}
	}
	u := d.Usage()
	if u.AllocatedBytes != allocated || u.DataBytes != data {
		return fmt.Errorf("disk accounts %d allocated, %d data; files sum to %d, %d",
			u.AllocatedBytes, u.DataBytes, allocated, data)
	}
	return nil
}

// Tails go to the best fit: the partial block whose longest free run is
// the shortest that holds them, even when a block earlier on the disk
// also has room.
func TestTailBestFit(t *testing.T) {
	d := mustDisk(t, Geometry{BlockSize: 4096, FragSize: 512, Groups: 1, BlocksPerGroup: 8})
	alloc := func(size int64) *File {
		t.Helper()
		f, err := d.Realloc(nil, size)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	alloc(4 * 512) // block 0, fragments 0-3: a 4-fragment run left
	alloc(7 * 512) // no run of 7 anywhere: block 1, fragments 8-14
	if c := alloc(512); c.tail.start != 15 {
		t.Errorf("1-fragment tail at fragment %d, want 15 (block 1's 1-fragment run)", c.tail.start)
	}
	if e := alloc(4 * 512); e.tail.start != 4 {
		t.Errorf("4-fragment tail at fragment %d, want 4 (block 0's 4-fragment run)", e.tail.start)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: waste with fragments is never worse than without, and both
// waste fractions shrink as blocks shrink.
func TestFragmentsNeverWorse(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 5, Duration: 30 * trace.Minute})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := WasteSweep(res.Events, []int64{4096, 8192, 16384})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.FragWaste > r.NoFragWaste+1e-9 {
			t.Errorf("block %d: fragments made waste worse (%.3f > %.3f)", r.BlockSize, r.FragWaste, r.NoFragWaste)
		}
		if i > 0 && r.NoFragWaste < rows[i-1].NoFragWaste-1e-9 {
			t.Errorf("whole-block waste should grow with block size: %v then %v", rows[i-1].NoFragWaste, r.NoFragWaste)
		}
		if r.DataBytes <= 0 {
			t.Errorf("block %d: no data allocated", r.BlockSize)
		}
	}
	// The paper's point: with fragments, even 16-KB blocks waste little.
	last := rows[len(rows)-1]
	if last.FragWaste > 0.25 {
		t.Errorf("FFS fragments should bound waste: %.3f at 16KB", last.FragWaste)
	}
	if last.NoFragWaste < last.FragWaste+0.1 {
		t.Errorf("whole-block allocation should waste much more at 16KB: %.3f vs %.3f",
			last.NoFragWaste, last.FragWaste)
	}
}

func TestReplayTracksPopulation(t *testing.T) {
	events := []trace.Event{
		// Pre-existing file seen at open: allocated at its size.
		{Time: 0, Kind: trace.KindOpen, OpenID: 1, File: 1, Mode: trace.ReadOnly, Size: 6000},
		{Time: 10, Kind: trace.KindClose, OpenID: 1, NewPos: 6000},
		// New file written then deleted.
		{Time: 20, Kind: trace.KindCreate, OpenID: 2, File: 2, Mode: trace.WriteOnly},
		{Time: 30, Kind: trace.KindClose, OpenID: 2, NewPos: 3000},
		{Time: 40, Kind: trace.KindUnlink, File: 2},
		// Truncation shrinks in place.
		{Time: 50, Kind: trace.KindTruncate, File: 1, Size: 1000},
	}
	rows, err := WasteSweepSource(trace.NewSliceSource(events), []int64{4096})
	if err != nil {
		t.Fatal(err)
	}
	// Only file 1 survives, at 1000 bytes: two 512-byte fragments, or
	// one whole block without fragments.
	if r := rows[0]; r.DataBytes != 1000 || r.FragAlloc != 1024 || r.NoFragAlloc != 4096 {
		t.Errorf("final population = %+v, want 1000 data bytes in 1024 (frag) / 4096 (no frag)", r)
	}
}

func TestReplayRejectsMalformed(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindClose, OpenID: 9, NewPos: 0},
	}
	if _, err := WasteSweepSource(trace.NewSliceSource(events), []int64{4096}); err == nil {
		t.Errorf("malformed trace accepted")
	}
}

// Replaying one population history twice must give identical results,
// down to the unreported free-block fraction, which depends on where
// every tail landed.
func TestReplayDeterministic(t *testing.T) {
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: 2 * trace.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ops, err := populationOps(trace.NewSliceSource(res.Events))
	if err != nil {
		t.Fatal(err)
	}
	geo := Geometry{BlockSize: 8192, FragSize: 1024, Groups: 16, BlocksPerGroup: 64 << 20 / 8192}
	first, err := replayPop(ops, geo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := replayPop(ops, geo)
		if err != nil {
			t.Fatal(err)
		}
		if *again != *first {
			t.Fatalf("replay %d differs:\n%+v\nvs\n%+v", i+2, *again, *first)
		}
	}
}
