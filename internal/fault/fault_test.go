package fault

import (
	"math/rand"
	"reflect"
	"testing"

	"bsdtrace/internal/cachesim"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// tb is a tiny trace builder, mirroring the cachesim tests'.
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

func (b *tb) write(f trace.FileID, n int64) {
	id := b.nextID
	b.nextID++
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindCreate, OpenID: id, File: f, User: 1, Mode: trace.WriteOnly},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

func (b *tb) read(f trace.FileID, n int64) {
	id := b.nextID
	b.nextID++
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: f, User: 1, Mode: trace.ReadOnly, Size: n},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

func (b *tb) unlink(f trace.FileID) {
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindUnlink, File: f})
}

func (b *tb) truncate(f trace.FileID, n int64) {
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindTruncate, File: f, Size: n})
}

// randomTrace mixes reads, writes, and data death with idle gaps long
// enough to span several 30-second flush intervals.
func randomTrace(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	b := newTB()
	for i := 0; i < n; i++ {
		f := trace.FileID(rng.Intn(30) + 1)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			b.read(f, int64(rng.Intn(50000)+1))
		case 4, 5, 6, 7:
			b.write(f, int64(rng.Intn(50000)+1))
		case 8:
			b.unlink(f)
		case 9:
			b.truncate(f, int64(rng.Intn(10000)))
		}
		if rng.Intn(4) == 0 {
			b.now += trace.Time(rng.Intn(120 * int(trace.Second)))
		}
	}
	return b.events
}

func mustTape(t *testing.T, events []trace.Event) *xfer.Tape {
	t.Helper()
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// testConfigs exercises every write policy, at a cache small enough that
// evictions (and their write-backs) happen.
func testConfigs() []cachesim.Config {
	return []cachesim.Config{
		{BlockSize: 4096, CacheSize: 64 << 10, Write: cachesim.WriteThrough},
		{BlockSize: 4096, CacheSize: 64 << 10, Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second},
		{BlockSize: 4096, CacheSize: 64 << 10, Write: cachesim.FlushBack, FlushInterval: 5 * trace.Minute},
		{BlockSize: 4096, CacheSize: 64 << 10, Write: cachesim.DelayedWrite},
		{BlockSize: 1024, CacheSize: 1 << 20, Write: cachesim.FlushBack, FlushInterval: 30 * trace.Second},
		{BlockSize: 8192, CacheSize: 1 << 20, Write: cachesim.DelayedWrite},
	}
}

// awkwardPoints returns crash instants chosen to hit ties: exact op
// times, exact flush boundaries, time zero, and past the end of the
// trace — plus an even spread.
func awkwardPoints(tape *xfer.Tape) []trace.Time {
	pts := Points(tape, 13)
	end := tape.Ops[len(tape.Ops)-1].Time
	pts = append(pts, 0, end, end+trace.Hour)
	for _, i := range []int{0, len(tape.Ops) / 3, 2 * len(tape.Ops) / 3} {
		pts = append(pts, tape.Ops[i].Time)
	}
	for b := 30 * trace.Second; b < end; b += 10 * trace.Minute {
		pts = append(pts, b)
	}
	return pts
}

// The single-pass sweep must agree with the obvious implementation: for
// each crash point, truncate the tape at that instant, replay from
// scratch, and count the blocks dirty at the end. This is both the
// correctness proof for the one-replay-per-configuration design and a
// regression test for the flush-clock fix — before it, a flush scan due
// during an idle gap ran with the caught-up clock, so a crash point
// inside the gap wrongly saw already-flushed blocks as dirty.
func TestCrashReplayMatchesTruncatedReplays(t *testing.T) {
	for _, seed := range []int64{3, 7, 11} {
		tape := mustTape(t, randomTrace(seed, 300))
		points := awkwardPoints(tape)
		for _, cfg := range testConfigs() {
			rep, err := CrashReplayTape(tape, cfg, points)
			if err != nil {
				t.Fatal(err)
			}
			full, err := cachesim.SimulateTape(tape, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Result, full) {
				t.Errorf("seed %d cfg %+v: piggybacked Result differs from SimulateTape", seed, cfg)
			}
			for _, p := range rep.Points {
				trunc, err := cachesim.SimulateTape(tape.Truncate(p.Time), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p.Blocks != trunc.DirtyAtEnd {
					t.Errorf("seed %d cfg %+v crash at %v: single-pass loss %d blocks, truncated replay %d",
						seed, cfg, p.Time, p.Blocks, trunc.DirtyAtEnd)
				}
			}
		}
	}
}

// Write-through is the paper's reliability baseline: no block is ever
// dirty, so a crash at any instant loses nothing.
func TestWriteThroughLosesNothing(t *testing.T) {
	tape := mustTape(t, randomTrace(5, 400))
	cfg := cachesim.Config{BlockSize: 4096, CacheSize: 256 << 10, Write: cachesim.WriteThrough}
	rep, err := CrashReplayTape(tape, cfg, Points(tape, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Points {
		if p.Blocks != 0 || p.Bytes != 0 || p.MaxAge != 0 {
			t.Fatalf("write-through loss at %v: %+v", p.Time, p)
		}
	}
	if rep.VulnerableFraction() != 0 || rep.MeanLossBytes() != 0 {
		t.Errorf("write-through vulnerable %v, mean loss %v", rep.VulnerableFraction(), rep.MeanLossBytes())
	}
}

// A flush-back cache bounds every crash's loss age by one interval:
// anything dirtied earlier was written by an intervening scan. This is
// the paper's argument for the 30-second flush — and it only holds
// because overdue scans execute at their scheduled boundaries.
func TestFlushBackAgeBoundedByInterval(t *testing.T) {
	for _, interval := range []trace.Time{30 * trace.Second, 5 * trace.Minute} {
		tape := mustTape(t, randomTrace(13, 400))
		cfg := cachesim.Config{BlockSize: 4096, CacheSize: 1 << 20, Write: cachesim.FlushBack, FlushInterval: interval}
		rep, err := CrashReplayTape(tape, cfg, Points(tape, 200))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Points {
			if p.MaxAge > interval {
				t.Errorf("interval %v: crash at %v would lose data aged %v", interval, p.Time, p.MaxAge)
			}
		}
		if rep.MaxAge() > interval {
			t.Errorf("interval %v: report MaxAge %v", interval, rep.MaxAge())
		}
	}
}

// The paper's qualitative ordering, pointwise: at every crash instant,
// write-through loses nothing, the 30-second flush no more than the
// 5-minute flush, and delayed write the most. The dirty sets are nested
// (cache contents and evictions are write-policy-independent; shorter
// intervals only clean earlier), so the ordering must hold at every
// sampled point, not just on average.
func TestPolicyLossOrdering(t *testing.T) {
	for _, seed := range []int64{17, 29} {
		tape := mustTape(t, randomTrace(seed, 500))
		reps, err := PolicySweepTape(tape, 4096, 256<<10, cachesim.PaperPolicies(), Points(tape, 100))
		if err != nil {
			t.Fatal(err)
		}
		wt, fb30, fb5m, dw := reps[0], reps[1], reps[2], reps[3]
		var anyLoss bool
		for i := range wt.Points {
			a, b, c, d := wt.Points[i].Bytes, fb30.Points[i].Bytes, fb5m.Points[i].Bytes, dw.Points[i].Bytes
			if a != 0 {
				t.Fatalf("seed %d point %d: write-through lost %d bytes", seed, i, a)
			}
			if b > c || c > d {
				t.Errorf("seed %d point %d: loss ordering violated: fb30=%d fb5m=%d dw=%d", seed, i, b, c, d)
			}
			anyLoss = anyLoss || d > 0
		}
		if !anyLoss {
			t.Fatalf("seed %d: delayed write never had anything at risk; trace too weak", seed)
		}
		if dw.MeanLossBytes() <= fb30.MeanLossBytes() {
			t.Errorf("seed %d: delayed-write mean loss %.0f not above 30s flush %.0f",
				seed, dw.MeanLossBytes(), fb30.MeanLossBytes())
		}
	}
}

// The diskless network's premise: clients write through to the server,
// so a client crash loses nothing at any instant. Run the crash sweep
// over each machine's tape with a write-through client-tier
// configuration.
func TestTwoLevelClientCrashLosesNothing(t *testing.T) {
	machines := [][]trace.Event{randomTrace(31, 200), randomTrace(37, 200), randomTrace(41, 200)}
	clientCfg := cachesim.Config{BlockSize: 4096, CacheSize: 128 << 10, Write: cachesim.WriteThrough}
	for m, events := range machines {
		tape := mustTape(t, events)
		rep, err := CrashReplayTape(tape, clientCfg, Points(tape, 40))
		if err != nil {
			t.Fatal(err)
		}
		if f := rep.VulnerableFraction(); f != 0 {
			t.Errorf("machine %d: client vulnerable at %v of crash points", m, f)
		}
	}
}

func TestPoints(t *testing.T) {
	tape := mustTape(t, randomTrace(1, 50))
	end := tape.Ops[len(tape.Ops)-1].Time
	pts := Points(tape, 8)
	if len(pts) != 8 {
		t.Fatalf("got %d points", len(pts))
	}
	for i, p := range pts {
		if i > 0 && p <= pts[i-1] {
			t.Errorf("points not increasing at %d: %v", i, pts)
		}
	}
	if pts[7] != end {
		t.Errorf("last point %v, want trace end %v", pts[7], end)
	}
	if got := Points(tape, 0); got != nil {
		t.Errorf("Points(tape, 0) = %v", got)
	}
	if got := Points(&xfer.Tape{}, 5); got != nil {
		t.Errorf("Points(empty, 5) = %v", got)
	}
}

func TestSweepRejectsNegativePoint(t *testing.T) {
	tape := mustTape(t, randomTrace(1, 20))
	cfg := cachesim.Config{BlockSize: 4096, CacheSize: 1 << 20, Write: cachesim.DelayedWrite}
	if _, err := CrashReplayTape(tape, cfg, []trace.Time{-trace.Second}); err == nil {
		t.Fatal("negative crash point accepted")
	}
}

// Unsorted point lists are normalized; the report comes back in time
// order regardless.
func TestSweepSortsPoints(t *testing.T) {
	tape := mustTape(t, randomTrace(9, 100))
	cfg := cachesim.Config{BlockSize: 4096, CacheSize: 1 << 20, Write: cachesim.DelayedWrite}
	pts := Points(tape, 6)
	shuffled := []trace.Time{pts[3], pts[0], pts[5], pts[1], pts[4], pts[2]}
	a, err := CrashReplayTape(tape, cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrashReplayTape(tape, cfg, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatal("point counts differ")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, a.Points[i], b.Points[i])
		}
	}
}

// The age CDF's weight is the total number of dirty blocks over all
// snapshots — one histogram entry per (crash point, dirty block) pair.
func TestAgeCDFWeight(t *testing.T) {
	tape := mustTape(t, randomTrace(21, 300))
	cfg := cachesim.Config{BlockSize: 4096, CacheSize: 1 << 20, Write: cachesim.DelayedWrite}
	rep, err := CrashReplayTape(tape, cfg, Points(tape, 32))
	if err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for _, p := range rep.Points {
		blocks += p.Blocks
	}
	if blocks == 0 {
		t.Fatal("trace too weak: no dirty blocks at any crash point")
	}
	if len(rep.AgeCDF) == 0 {
		t.Fatal("empty age CDF despite dirty blocks")
	}
	if got := rep.AgeCDF.FractionAtOrBelow(1e18); got != 1 {
		t.Errorf("CDF tail fraction %v, want 1", got)
	}
}
