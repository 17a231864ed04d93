package xfer

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bsdtrace/internal/trace"
)

// tapeTB builds small event streams for tape tests.
type tapeTB struct {
	events []trace.Event
	now    trace.Time
	nextID trace.OpenID
}

func (b *tapeTB) tick() trace.Time {
	b.now += 10 * trace.Millisecond
	return b.now
}

func (b *tapeTB) create(f trace.FileID, n int64) {
	id := b.nextID + 1
	b.nextID = id
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindCreate, OpenID: id, File: f, User: 1, Mode: trace.WriteOnly},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: n},
	)
}

func (b *tapeTB) read(f trace.FileID, sz int64) {
	id := b.nextID + 1
	b.nextID = id
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: f, User: 1, Mode: trace.ReadOnly, Size: sz},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: sz},
	)
}

func mustTape(t *testing.T, events []trace.Event) *Tape {
	t.Helper()
	tape, err := NewTape(events)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// countKinds tallies a tape's op kinds.
func countKinds(tape *Tape) map[OpKind]int {
	m := make(map[OpKind]int)
	for _, op := range tape.Ops {
		m[op.Kind]++
	}
	return m
}

func TestTapeMatchesScanner(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 10000)
	b.read(1, 10000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindTruncate, File: 1, Size: 4000})
	b.read(1, 4000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindUnlink, File: 1})

	// The tape's transfers must be exactly what a scanner emits, in order.
	var want []Transfer
	sc := NewScanner()
	sc.OnTransfer = func(tr Transfer) { want = append(want, tr) }
	for _, e := range b.events {
		sc.Feed(e)
	}
	sc.Finish()

	tape := mustTape(t, b.events)
	if len(tape.Transfers) != len(want) {
		t.Fatalf("tape has %d transfers, scanner emitted %d", len(tape.Transfers), len(want))
	}
	for i := range want {
		if tape.Transfers[i] != want[i] {
			t.Errorf("transfer %d: tape %+v != scanner %+v", i, tape.Transfers[i], want[i])
		}
	}
	kinds := countKinds(tape)
	// create purges once (overwrite), truncate once, unlink once.
	if kinds[OpPurge] != 3 {
		t.Errorf("want 3 purges, got %d", kinds[OpPurge])
	}
	if kinds[OpTransfer] != len(want) {
		t.Errorf("want %d transfer ops, got %d", kinds[OpTransfer], len(want))
	}
}

func TestTapeTimesNondecreasing(t *testing.T) {
	b := &tapeTB{}
	for f := trace.FileID(1); f <= 5; f++ {
		b.create(f, 30000)
		b.read(f, 30000)
	}
	tape := mustTape(t, b.events)
	var last trace.Time
	for i, op := range tape.Ops {
		if op.Time < last {
			t.Fatalf("op %d time %v < previous %v", i, op.Time, last)
		}
		last = op.Time
	}
}

func TestTapeAdvanceCollapse(t *testing.T) {
	// Opens produce no transfer or purge; their clock motion must land in
	// OpAdvance ops, and consecutive ones must merge.
	b := &tapeTB{}
	id := trace.OpenID(1)
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: 1, User: 1, Mode: trace.ReadOnly, Size: 5000},
		trace.Event{Time: b.tick(), Kind: trace.KindSeek, OpenID: id, NewPos: 0},
		trace.Event{Time: b.tick(), Kind: trace.KindSeek, OpenID: id, NewPos: 0},
	)
	closeTime := b.tick()
	b.events = append(b.events, trace.Event{Time: closeTime, Kind: trace.KindClose, OpenID: id, NewPos: 5000})

	tape := mustTape(t, b.events)
	// open + seek + seek collapse to one advance; the close emits the
	// transfer. No other ops.
	kinds := countKinds(tape)
	if kinds[OpAdvance] != 1 || kinds[OpTransfer] != 1 || len(tape.Ops) != 2 {
		t.Fatalf("want [advance, transfer], got %v", tape.Ops)
	}
	// The merged advance carries the latest pre-close event time.
	if tape.Ops[0].Time >= closeTime {
		t.Errorf("advance time %v not before close %v", tape.Ops[0].Time, closeTime)
	}
}

func TestTapeOldSizes(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 10000) // transfer 0: write while size 0
	b.read(1, 10000)   // transfer 1: size 10000
	// Reopen for write without create: rewrite first 2000 bytes.
	id := b.nextID + 1
	b.nextID = id
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: id, File: 1, User: 1, Mode: trace.WriteOnly, Size: 10000},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: id, NewPos: 2000},
	)
	tape := mustTape(t, b.events)
	if len(tape.OldSizes) != len(tape.Transfers) {
		t.Fatalf("OldSizes length %d != Transfers %d", len(tape.OldSizes), len(tape.Transfers))
	}
	want := []int64{0, 10000, 10000}
	for i, w := range want {
		if tape.OldSizes[i] != w {
			t.Errorf("OldSizes[%d] = %d, want %d", i, tape.OldSizes[i], w)
		}
	}
}

func TestTapeExecSynthesis(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 8000)
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindExec, File: 1, User: 1, Size: 8000})
	b.events = append(b.events, trace.Event{Time: b.tick(), Kind: trace.KindExec, File: 2, User: 1, Size: 0})
	tape := mustTape(t, b.events)
	kinds := countKinds(tape)
	if kinds[OpExec] != 1 {
		t.Fatalf("want 1 exec op (zero-size exec is an advance), got %d", kinds[OpExec])
	}
	for _, op := range tape.Ops {
		if op.Kind != OpExec {
			continue
		}
		tr := tape.Transfers[op.Xfer]
		if tr.File != 1 || tr.Offset != 0 || tr.Length != 8000 || tr.Write {
			t.Errorf("exec transfer wrong: %+v", tr)
		}
		if tape.OldSizes[op.Xfer] != 8000 {
			t.Errorf("exec OldSizes = %d, want 8000", tape.OldSizes[op.Xfer])
		}
	}
}

func TestTapeUnclosed(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 1000)
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: 99, File: 2, User: 1, Mode: trace.ReadOnly, Size: 500})
	tape := mustTape(t, b.events)
	if tape.Unclosed != 1 {
		t.Errorf("Unclosed = %d, want 1", tape.Unclosed)
	}
}

func TestTapeRejectsMalformed(t *testing.T) {
	events := []trace.Event{
		{Time: 1, Kind: trace.KindClose, OpenID: 42, NewPos: 100}, // close of unknown open
	}
	if _, err := NewTape(events); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestTapeMemoSharesBuilds(t *testing.T) {
	tape := &Tape{}
	var builds int
	var mu sync.Mutex
	build := func() any {
		mu.Lock()
		builds++
		mu.Unlock()
		return builds
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v := tape.Memo(4096, build); v.(int) != 1 {
				t.Errorf("Memo returned %v, want 1", v)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("build ran %d times, want 1", builds)
	}
	if v := tape.Memo(8192, build); v.(int) != 2 {
		t.Errorf("second key returned %v, want 2", v)
	}
}

// TestTapeBuilderOnSharedScanner: a builder over a scanner that already
// has its owner's OnTransfer builds the tape a builder over a fresh
// scanner builds, the owner still sees every transfer, and on a
// malformed stream (a reused open ID, a close of an unknown open, an
// open left unclosed) the partial tapes and the complaint agree too.
func TestTapeBuilderOnSharedScanner(t *testing.T) {
	b := &tapeTB{}
	b.create(1, 10000)
	b.read(1, 10000)
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindExec, File: 2, User: 1, Size: 3000},
		trace.Event{Time: b.tick(), Kind: trace.KindTruncate, File: 1, Size: 4000})
	b.read(1, 4000)
	clean := b.events
	b.events = append(b.events,
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: 7, File: 3, User: 2, Mode: trace.ReadOnly, Size: 50},
		trace.Event{Time: b.tick(), Kind: trace.KindOpen, OpenID: 7, File: 4, User: 2, Mode: trace.ReadOnly, Size: 60},
		trace.Event{Time: b.tick(), Kind: trace.KindClose, OpenID: 99, NewPos: 10})
	malformed := b.events

	for name, events := range map[string][]trace.Event{"clean": clean, "malformed": malformed} {
		fresh := NewTapeBuilder()
		sc := NewScanner()
		var seen []Transfer
		sc.OnTransfer = func(tr Transfer) { seen = append(seen, tr) }
		shared := NewTapeBuilderOn(sc)
		for _, e := range events {
			fresh.Add(e)
			shared.Add(e)
		}
		_, wantErr := fresh.Finish()
		_, gotErr := shared.Finish()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
		}
		got, want := shared.t, fresh.t
		if !slices.Equal(got.Ops, want.Ops) || !slices.Equal(got.Transfers, want.Transfers) ||
			!slices.Equal(got.OldSizes, want.OldSizes) || got.Unclosed != want.Unclosed {
			t.Errorf("%s: shared-scanner tape differs from the fresh one", name)
		}
		if !slices.Equal(seen, scannerTransfers(want)) {
			t.Errorf("%s: the owner's callback saw %d transfers, want %d", name, len(seen), len(scannerTransfers(want)))
		}
	}
}

// scannerTransfers returns the tape's transfers that the scanner
// emitted, leaving out the synthesized exec reads.
func scannerTransfers(t *Tape) []Transfer {
	var out []Transfer
	for _, op := range t.Ops {
		if op.Kind == OpTransfer {
			out = append(out, t.Transfers[op.Xfer])
		}
	}
	return out
}
