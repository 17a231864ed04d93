package cachesim

import (
	"reflect"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// recorder is a test Observer that logs every callback.
type recorder struct {
	events []obsEvent
}

type obsEvent struct {
	id     int32
	time   trace.Time
	clean  bool
	reason CleanReason
}

func (r *recorder) BlockDirtied(id int32, now trace.Time) {
	r.events = append(r.events, obsEvent{id: id, time: now})
}

func (r *recorder) BlockCleaned(id int32, now trace.Time, reason CleanReason) {
	r.events = append(r.events, obsEvent{id: id, time: now, clean: true, reason: reason})
}

func mustTape(t *testing.T, events []trace.Event) *xfer.Tape {
	t.Helper()
	tape, err := xfer.NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// Regression test for the flush-clock drift: a flush-back scan that
// comes due during an idle gap must execute at its scheduled boundary,
// not at the time of the event that catches the clock up. Dirty a block,
// go idle for many intervals, then touch the trace again — the flush
// notification must carry the first boundary after the write.
func TestOverdueFlushRunsAtScheduledTime(t *testing.T) {
	const interval = 30 * trace.Second
	b := newTB()
	b.write(1, 4096) // dirtied at ~20ms
	dirtyTime := b.now
	b.now = 10 * trace.Minute // idle gap spanning 19 flush boundaries
	b.read(2, 4096)           // the catching-up event

	rec := &recorder{}
	tape := mustTape(t, b.events)
	_, err := SimulateTapeObserved(tape, Config{
		BlockSize: 4096, CacheSize: 1 << 20,
		Write: FlushBack, FlushInterval: interval,
	}, rec)
	if err != nil {
		t.Fatal(err)
	}

	wantFlush := (dirtyTime/interval + 1) * interval
	var sawClean bool
	for _, e := range rec.events {
		if !e.clean {
			continue
		}
		sawClean = true
		if e.reason != CleanFlushed {
			t.Errorf("block %d cleaned by %v, want flush scan", e.id, e.reason)
		}
		if e.time != wantFlush {
			t.Errorf("flush notification at %v, want scheduled boundary %v", e.time, wantFlush)
		}
		if e.time%interval != 0 {
			t.Errorf("flush time %v not on a flush boundary", e.time)
		}
	}
	if !sawClean {
		t.Fatal("no flush notification observed")
	}
}

// Observer callbacks must arrive in nondecreasing time order — the
// contract internal/fault's single-pass crash sweep depends on.
func TestObserverTimesNondecreasing(t *testing.T) {
	for _, seed := range []int64{7, 19, 23} {
		tape := mustTape(t, randomTrace(seed, 400))
		for _, cfg := range []Config{
			{BlockSize: 4096, CacheSize: 64 << 10, Write: FlushBack, FlushInterval: 30 * trace.Second},
			{BlockSize: 4096, CacheSize: 64 << 10, Write: DelayedWrite},
		} {
			rec := &recorder{}
			if _, err := SimulateTapeObserved(tape, cfg, rec); err != nil {
				t.Fatal(err)
			}
			var last trace.Time
			for i, e := range rec.events {
				if e.time < last {
					t.Fatalf("seed %d cfg %+v: callback %d at %v after one at %v", seed, cfg, i, e.time, last)
				}
				last = e.time
			}
		}
	}
}

// Under write-through no block is ever dirty, so the observer must stay
// silent.
func TestWriteThroughObserverSilent(t *testing.T) {
	tape := mustTape(t, randomTrace(11, 300))
	rec := &recorder{}
	if _, err := SimulateTapeObserved(tape, Config{
		BlockSize: 4096, CacheSize: 64 << 10, Write: WriteThrough,
	}, rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 0 {
		t.Fatalf("write-through fired %d observer callbacks", len(rec.events))
	}
}

// Attaching an observer must not perturb the simulation, and
// MultiSimulateObserved must agree with MultiSimulate.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	tape := mustTape(t, randomTrace(13, 300))
	cfgs := []Config{
		{BlockSize: 4096, CacheSize: 64 << 10, Write: FlushBack, FlushInterval: 30 * trace.Second},
		{BlockSize: 4096, CacheSize: 64 << 10, Write: DelayedWrite},
	}
	plain, err := MultiSimulate(tape, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := MultiSimulateObserved(tape, cfgs, func(i int) Observer { return &recorder{} })
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(plain[i], observed[i]) {
			t.Errorf("cfg %d: observed result differs from plain", i)
		}
	}
}

// Every dirtied block is eventually accounted for: cleaned (flushed,
// written back, or discarded) or still dirty at the end.
func TestObserverBalancesDirtyLifecycle(t *testing.T) {
	tape := mustTape(t, randomTrace(17, 400))
	cfg := Config{BlockSize: 4096, CacheSize: 64 << 10, Write: FlushBack, FlushInterval: 30 * trace.Second}
	rec := &recorder{}
	res, err := SimulateTapeObserved(tape, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make(map[int32]bool)
	for _, e := range rec.events {
		if e.clean {
			if !dirty[e.id] {
				t.Fatalf("block %d cleaned while not dirty", e.id)
			}
			delete(dirty, e.id)
		} else {
			if dirty[e.id] {
				t.Fatalf("block %d dirtied twice without a clean", e.id)
			}
			dirty[e.id] = true
		}
	}
	if int64(len(dirty)) != res.DirtyAtEnd {
		t.Errorf("observer leaves %d dirty, result says %d", len(dirty), res.DirtyAtEnd)
	}
}

// The two-level regression for the flush-clock fix: with a flush-back
// server cache big enough that nothing is ever evicted, every server
// disk write is a flush-scan write and must land exactly on a flush
// boundary — even when the scan came due during an idle gap in the
// merged client traffic.
func TestTwoLevelServerWritesOnFlushBoundaries(t *testing.T) {
	const interval = 30 * trace.Second
	machines := [][]trace.Event{randomTrace(31, 200), randomTrace(37, 200)}
	tapes := make([]*xfer.Tape, len(machines))
	for m, events := range machines {
		tapes[m] = mustTape(t, events)
	}
	var writes []trace.Time
	cfg := TwoLevelConfig{
		BlockSize:   4096,
		ClientCache: 64 << 10,
		ServerCache: 1 << 30, // no evictions: all disk writes are flushes
		Write:       FlushBack, FlushInterval: interval,
		OnServerDisk: func(id int32, write bool, tm trace.Time) {
			if write {
				writes = append(writes, tm)
			}
		},
	}
	res, err := TwoLevelSimulateTapes(tapes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) == 0 {
		t.Fatal("no server disk writes observed; trace too weak")
	}
	if int64(len(writes)) != res.ServerDiskWrites {
		t.Fatalf("observed %d writes, result counted %d", len(writes), res.ServerDiskWrites)
	}
	for _, tm := range writes {
		if tm%interval != 0 {
			t.Errorf("server write at %v, not on a %v flush boundary", tm, interval)
		}
	}
}

// A stray flush interval on a non-flushing policy is a configuration
// mixup and must be rejected, not silently ignored.
func TestFillRejectsStrayFlushInterval(t *testing.T) {
	base := Config{BlockSize: 4096, CacheSize: 1 << 20}
	for _, w := range []WritePolicy{WriteThrough, DelayedWrite} {
		cfg := base
		cfg.Write = w
		cfg.FlushInterval = 30 * trace.Second
		if _, err := SimulateTape(&xfer.Tape{}, cfg); err == nil {
			t.Errorf("%v with a flush interval accepted", w)
		}
	}
	cfg := base
	cfg.Write = FlushBack
	if _, err := SimulateTape(&xfer.Tape{}, cfg); err == nil {
		t.Error("flush-back without an interval accepted")
	}
	cfg.FlushInterval = 30 * trace.Second
	if _, err := SimulateTape(&xfer.Tape{}, cfg); err != nil {
		t.Errorf("valid flush-back rejected: %v", err)
	}
}

// flushedOrder replays the events into a 2-block flush-back cache and
// returns the IDs its flush-back scans wrote, in order.
func flushedOrder(t *testing.T, b *tb) []int32 {
	t.Helper()
	rec := &recorder{}
	if _, err := SimulateTapeObserved(mustTape(t, b.events), Config{
		BlockSize: 4096, CacheSize: 2 * 4096,
		Write: FlushBack, FlushInterval: 30 * trace.Second,
	}, rec); err != nil {
		t.Fatal(err)
	}
	var out []int32
	for _, e := range rec.events {
		if e.clean && e.reason == CleanFlushed {
			out = append(out, e.id)
		}
	}
	return out
}

// A flush-back scan writes blocks in the order they were dirtied, even
// when an evicted block's place is taken by a later arrival, and a block
// evicted and re-dirtied before the scan is written at its new position.
func TestFlushBackCleansInDirtiedOrder(t *testing.T) {
	// Block IDs follow first touch: X=0, Z=1, Y=2.
	const x, z, y = 1, 2, 3
	b := newTB()
	b.write(x, 4096)
	b.write(z, 4096)
	b.write(y, 4096) // evicts X; Y takes its place
	b.now = 31 * trace.Second
	b.read(9, 4096) // the scan at 30 s
	if got, want := flushedOrder(t, b), []int32{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("flushed %v, want Z then Y %v", got, want)
	}

	b = newTB()
	b.write(x, 4096)
	b.write(z, 4096)
	b.write(y, 4096) // evicts X
	b.write(x, 4096) // evicts Z; X is dirty again, after Y
	b.now = 31 * trace.Second
	b.read(9, 4096)
	if got, want := flushedOrder(t, b), []int32{2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("flushed %v, want Y then X %v", got, want)
	}
}
