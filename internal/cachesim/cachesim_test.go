package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// tb is a tiny trace builder for cache tests.
type tb struct {
	events []trace.Event
	now    trace.Time
	nextID trace.OpenID
}

func newTB() *tb { return &tb{nextID: 1} }

func (b *tb) tick() trace.Time {
	b.now += 10 * trace.Millisecond
	return b.now
}

// write appends a create-write-close of length n to file f.
func (b *tb) write(f trace.FileID, n int64) {
	id := b.nextID
	b.nextID++
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindCreate, OpenID: id, File: f, User: 1, Mode: trace.WriteOnly},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

// read appends an open-read-close of the whole file (size n).
func (b *tb) read(f trace.FileID, n int64) {
	id := b.nextID
	b.nextID++
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: f, User: 1, Mode: trace.ReadOnly, Size: n},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

// overwrite appends an open(WriteOnly)-write-close that rewrites the first
// n bytes of existing file f of size sz without truncating it.
func (b *tb) overwrite(f trace.FileID, sz, n int64) {
	id := b.nextID
	b.nextID++
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: f, User: 1, Mode: trace.WriteOnly, Size: sz},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

func (b *tb) unlink(f trace.FileID) {
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindUnlink, File: f})
}

func (b *tb) truncate(f trace.FileID, n int64) {
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindTruncate, File: f, Size: n})
}

func (b *tb) exec(f trace.FileID, size int64) {
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindExec, File: f, User: 1, Size: size})
}

func mustSim(t *testing.T, events []trace.Event, cfg Config) *Result {
	t.Helper()
	r, err := SimulateTape(mustTape(t, events), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestColdReadMisses(t *testing.T) {
	b := newTB()
	b.write(1, 8192) // 2 blocks of new data: no fetches
	b.read(1, 8192)  // 2 block reads: hits (just written)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.LogicalAccesses != 4 || r.WriteAccesses != 2 || r.ReadAccesses != 2 {
		t.Fatalf("accesses: %+v", r)
	}
	if r.DiskReads != 0 {
		t.Errorf("DiskReads = %d, want 0 (writes were new data; reads hit)", r.DiskReads)
	}
	if r.DiskWrites != 0 {
		t.Errorf("DiskWrites = %d, want 0 (delayed write, nothing ejected)", r.DiskWrites)
	}
	if r.DirtyAtEnd != 2 {
		t.Errorf("DirtyAtEnd = %d, want 2", r.DirtyAtEnd)
	}
}

func TestReadMissFetches(t *testing.T) {
	b := newTB()
	// File exists before the trace: the open records size 8192 without a
	// preceding create, so its blocks are cold.
	b.read(7, 8192)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.DiskReads != 2 {
		t.Errorf("DiskReads = %d, want 2", r.DiskReads)
	}
	// Re-read hits.
	b.read(7, 8192)
	r = mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.DiskReads != 2 {
		t.Errorf("DiskReads after re-read = %d, want 2 (second read hits)", r.DiskReads)
	}
}

func TestWriteThroughCountsEveryWrite(t *testing.T) {
	b := newTB()
	b.write(1, 4096)
	b.write(1, 4096) // re-create: overwrites
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: WriteThrough})
	if r.DiskWrites != 2 {
		t.Errorf("DiskWrites = %d, want 2", r.DiskWrites)
	}
	if r.DirtyAtEnd != 0 {
		t.Errorf("write-through left dirty blocks")
	}
}

func TestDelayedWriteDiscardsDeadDirty(t *testing.T) {
	b := newTB()
	b.write(1, 8192)
	b.unlink(1)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.DiskWrites != 0 {
		t.Errorf("DiskWrites = %d, want 0 (file died in cache)", r.DiskWrites)
	}
	if r.DirtyDiscarded != 2 || r.Purged != 2 {
		t.Errorf("DirtyDiscarded = %d, Purged = %d, want 2, 2", r.DirtyDiscarded, r.Purged)
	}
	if got := r.NeverWrittenFraction(); got != 1 {
		t.Errorf("NeverWrittenFraction = %v, want 1", got)
	}
}

func TestOverwritePurges(t *testing.T) {
	b := newTB()
	b.write(1, 8192)
	b.write(1, 4096) // re-create purges old blocks, writes one new block
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.Purged != 2 || r.DirtyDiscarded != 2 {
		t.Errorf("Purged=%d DirtyDiscarded=%d, want 2,2", r.Purged, r.DirtyDiscarded)
	}
	if r.DirtyAtEnd != 1 {
		t.Errorf("DirtyAtEnd = %d, want 1", r.DirtyAtEnd)
	}
}

func TestTruncatePartialPurge(t *testing.T) {
	b := newTB()
	b.write(1, 16384) // blocks 0..3
	b.truncate(1, 6000)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	// Blocks 2 and 3 start at/beyond 6000? Block 1 spans 4096..8191 and
	// still holds valid bytes; blocks 2 (8192+) and 3 (12288+) die.
	if r.Purged != 2 {
		t.Errorf("Purged = %d, want 2", r.Purged)
	}
}

func TestNoPurgeAblation(t *testing.T) {
	b := newTB()
	b.write(1, 8192)
	b.unlink(1)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite, NoPurge: true})
	if r.Purged != 0 || r.DirtyDiscarded != 0 {
		t.Errorf("NoPurge still purged: %+v", r)
	}
	if r.DirtyAtEnd != 2 {
		t.Errorf("DirtyAtEnd = %d, want 2", r.DirtyAtEnd)
	}
}

func TestFlushBack(t *testing.T) {
	b := newTB()
	b.write(1, 4096) // dirty at ~20 ms
	// Advance time past one 30-second flush interval with unrelated
	// activity.
	b.now = 31 * trace.Second
	b.read(9, 4096)
	r := mustSim(t, b.events, Config{
		BlockSize: 4096, CacheSize: 1 << 20,
		Write: FlushBack, FlushInterval: 30 * trace.Second,
	})
	if r.DiskWrites != 1 {
		t.Errorf("DiskWrites = %d, want 1 (flushed at 30 s)", r.DiskWrites)
	}
	if r.DirtyAtEnd != 0 {
		t.Errorf("DirtyAtEnd = %d, want 0", r.DirtyAtEnd)
	}
}

func TestFlushBackSkipsDeadBlocks(t *testing.T) {
	b := newTB()
	b.write(1, 4096)
	b.unlink(1) // dies ~30 ms, long before the first flush
	b.now = 31 * trace.Second
	b.read(9, 4096)
	r := mustSim(t, b.events, Config{
		BlockSize: 4096, CacheSize: 1 << 20,
		Write: FlushBack, FlushInterval: 30 * trace.Second,
	})
	if r.DiskWrites != 0 {
		t.Errorf("DiskWrites = %d, want 0 (block died before flush)", r.DiskWrites)
	}
}

func TestFullBlockOverwriteNeedsNoFetch(t *testing.T) {
	b := newTB()
	b.overwrite(1, 8192, 8192) // rewrite both blocks of a cold file entirely
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.DiskReads != 0 {
		t.Errorf("DiskReads = %d, want 0 (full-block overwrites)", r.DiskReads)
	}
}

func TestPartialOverwriteFetches(t *testing.T) {
	b := newTB()
	b.overwrite(1, 8192, 2000) // rewrite the first 2000 bytes of a cold 8 KB file
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.DiskReads != 1 {
		t.Errorf("DiskReads = %d, want 1 (partial block holds live data)", r.DiskReads)
	}
}

func TestAppendToFreshSpaceNeedsNoFetch(t *testing.T) {
	// Open a 100-byte file read-write, seek to end, append 50 bytes. The
	// tail of block 0 beyond byte 100 is not valid data, so no fetch of
	// the *written* portion is needed beyond the head bytes 0..99, which
	// ARE valid: the block holds live data, so this does fetch.
	b := newTB()
	id := b.nextID
	b.nextID++
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: 1, User: 1, Mode: trace.ReadWrite, Size: 100},
		trace.Event{Time: b.tick(), Kind: trace.KindSeek, OpenID: id, OldPos: 0, NewPos: 100},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: 150},
	)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.DiskReads != 1 {
		t.Errorf("DiskReads = %d, want 1 (head of block holds bytes 0..99)", r.DiskReads)
	}
	// Appending to a block-aligned fresh file needs nothing.
	b2 := newTB()
	b2.write(2, 4096)           // create block 0
	b2.overwrite(2, 4096, 4096) // full overwrite, no fetch, hit anyway
	r2 := mustSim(t, b2.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r2.DiskReads != 0 {
		t.Errorf("DiskReads = %d, want 0", r2.DiskReads)
	}
}

func TestLRUEviction(t *testing.T) {
	// Cache of 2 blocks. Touch files 1, 2, re-touch 1, then 3: FIFO
	// would evict 1; LRU evicts 2.
	b := newTB()
	b.read(1, 4096)
	b.read(2, 4096)
	b.read(1, 4096)
	b.read(3, 4096)
	b.read(1, 4096) // hit under LRU, miss under FIFO
	lru := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 8192, Write: DelayedWrite, Replacement: LRU})
	fifo := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 8192, Write: DelayedWrite, Replacement: FIFO})
	if lru.DiskReads != 3 {
		t.Errorf("LRU DiskReads = %d, want 3", lru.DiskReads)
	}
	if fifo.DiskReads != 4 {
		t.Errorf("FIFO DiskReads = %d, want 4", fifo.DiskReads)
	}
}

func TestEvictionWritesDirty(t *testing.T) {
	b := newTB()
	b.write(1, 4096)
	b.read(2, 4096)
	b.read(3, 4096) // evicts file 1's dirty block from a 2-block cache
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 8192, Write: DelayedWrite})
	if r.DiskWrites != 1 {
		t.Errorf("DiskWrites = %d, want 1 (dirty eviction)", r.DiskWrites)
	}
	if r.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", r.Evictions)
	}
}

func TestClockAndRandomRun(t *testing.T) {
	b := newTB()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		f := trace.FileID(rng.Intn(20) + 1)
		if rng.Intn(2) == 0 {
			b.write(f, int64(rng.Intn(20000)+1))
		} else {
			b.read(f, 4096)
		}
	}
	for _, rp := range []Replacement{Clock, Random} {
		r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 16384, Write: DelayedWrite, Replacement: rp, Seed: 1})
		if r.LogicalAccesses == 0 {
			t.Errorf("%v: no accesses", rp)
		}
		if r.DiskIOs() > r.LogicalAccesses+r.WriteAccesses {
			t.Errorf("%v: impossible I/O count %d for %d accesses", rp, r.DiskIOs(), r.LogicalAccesses)
		}
	}
}

func TestPagingMode(t *testing.T) {
	b := newTB()
	b.exec(50, 100000)
	off := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	on := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite, SimulatePaging: true})
	if off.LogicalAccesses != 0 {
		t.Errorf("paging off still accessed blocks: %d", off.LogicalAccesses)
	}
	want := int64((100000 + 4095) / 4096)
	if on.LogicalAccesses != want || on.DiskReads != want {
		t.Errorf("paging on: accesses=%d reads=%d, want %d", on.LogicalAccesses, on.DiskReads, want)
	}
	// A second exec of the same program hits in the cache.
	b.exec(50, 100000)
	on2 := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite, SimulatePaging: true})
	if on2.DiskReads != want {
		t.Errorf("second exec missed: reads=%d, want %d", on2.DiskReads, want)
	}
}

func TestResidency(t *testing.T) {
	b := newTB()
	b.write(1, 4096)
	b.now = 25 * trace.Minute
	b.unlink(1)
	r := mustSim(t, b.events, Config{BlockSize: 4096, CacheSize: 1 << 20, Write: DelayedWrite})
	if r.ResidencyOver != 1 {
		t.Errorf("ResidencyOver = %v, want 1 (block resident 25 min > 20 min)", r.ResidencyOver)
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zeroBlock":     {CacheSize: 1 << 20},
		"zeroCache":     {BlockSize: 4096},
		"flushNoPeriod": {BlockSize: 4096, CacheSize: 1 << 20, Write: FlushBack},
	} {
		if _, err := SimulateTape(&xfer.Tape{}, cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// A trace reaches the simulator only through its tape, so a malformed
// trace is refused before any replay.
func TestMalformedTraceRejected(t *testing.T) {
	events := []trace.Event{
		{Time: 0, Kind: trace.KindClose, OpenID: 5, NewPos: 100},
	}
	if _, err := xfer.NewTape(events); err == nil {
		t.Errorf("malformed trace accepted")
	}
}

func TestCountBlockAccesses(t *testing.T) {
	b := newTB()
	b.write(1, 10000)
	b.read(1, 10000)
	tape := mustTape(t, b.events)
	accesses := func(bs int64) int64 {
		r, err := SimulateTape(tape, Config{BlockSize: bs, CacheSize: 1 << 20, Write: DelayedWrite})
		if err != nil {
			t.Fatal(err)
		}
		return r.LogicalAccesses
	}
	if n := accesses(4096); n != 6 { // 3 write blocks + 3 read blocks
		t.Errorf("LogicalAccesses = %d, want 6", n)
	}
	if n := accesses(8192); n != 4 {
		t.Errorf("8K LogicalAccesses = %d, want 4", n)
	}
}

func TestStrings(t *testing.T) {
	if WriteThrough.String() != "write-through" || DelayedWrite.String() != "delayed-write" {
		t.Errorf("write policy names wrong")
	}
	if LRU.String() != "lru" || Random.String() != "random" {
		t.Errorf("replacement names wrong")
	}
}

// randomTrace builds a structurally valid random workload trace.
func randomTrace(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	b := newTB()
	for i := 0; i < n; i++ {
		f := trace.FileID(rng.Intn(30) + 1)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			b.read(f, int64(rng.Intn(50000)+1))
		case 4, 5, 6:
			b.write(f, int64(rng.Intn(50000)+1))
		case 7:
			b.unlink(f)
		case 8:
			b.truncate(f, int64(rng.Intn(10000)))
		case 9:
			b.exec(f, int64(rng.Intn(200000)+1))
		}
		if rng.Intn(4) == 0 {
			b.now += trace.Time(rng.Intn(60000))
		}
	}
	return b.events
}

// Property: for LRU, miss ratio is non-increasing in cache size (the LRU
// stack inclusion property, which purging preserves).
func TestLRUMonotoneInCacheSize(t *testing.T) {
	f := func(seed int64) bool {
		tape := mustTape(t, randomTrace(seed, 200))
		prev := int64(-1)
		for _, cs := range []int64{8192, 32768, 131072, 1 << 20} {
			r, err := SimulateTape(tape, Config{BlockSize: 4096, CacheSize: cs, Write: DelayedWrite})
			if err != nil {
				return false
			}
			if prev >= 0 && r.DiskIOs() > prev {
				return false
			}
			prev = r.DiskIOs()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: write-through always costs at least as many I/Os as flush-back,
// which costs at least as much as delayed-write; and accesses are policy-
// independent.
func TestWritePolicyOrdering(t *testing.T) {
	f := func(seed int64) bool {
		tape := mustTape(t, randomTrace(seed, 200))
		cfg := Config{BlockSize: 4096, CacheSize: 131072}
		cfg.Write = WriteThrough
		wt, err := SimulateTape(tape, cfg)
		if err != nil {
			return false
		}
		cfg.Write = FlushBack
		cfg.FlushInterval = 30 * trace.Second
		fb, err := SimulateTape(tape, cfg)
		if err != nil {
			return false
		}
		cfg.Write = DelayedWrite
		cfg.FlushInterval = 0
		dw, err := SimulateTape(tape, cfg)
		if err != nil {
			return false
		}
		if wt.LogicalAccesses != fb.LogicalAccesses || fb.LogicalAccesses != dw.LogicalAccesses {
			return false
		}
		return wt.DiskWrites >= fb.DiskWrites && fb.DiskWrites+fb.DirtyAtEnd >= dw.DiskWrites
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: reads never exceed read accesses; writes never exceed write
// accesses + flush rewrites; totals are internally consistent.
func TestResultConsistency(t *testing.T) {
	f := func(seed int64) bool {
		tape := mustTape(t, randomTrace(seed, 300))
		r, err := SimulateTape(tape, Config{BlockSize: 4096, CacheSize: 65536, Write: DelayedWrite})
		if err != nil {
			return false
		}
		if r.ReadAccesses+r.WriteAccesses != r.LogicalAccesses {
			return false
		}
		if r.DiskReads > r.LogicalAccesses {
			return false
		}
		// Under delayed-write each dirty block writes at most once per
		// residency, so writes cannot exceed write accesses.
		return r.DiskWrites <= r.WriteAccesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
