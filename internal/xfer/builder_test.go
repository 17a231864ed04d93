package xfer_test

import (
	"fmt"
	"slices"
	"testing"

	"bsdtrace/internal/analyzer"
	"bsdtrace/internal/trace"
	"bsdtrace/internal/xfer"
)

// plainTape builds the tape of events with one slice per list, grown by
// append: the builder as it was before its lists were chunked, kept as
// the oracle for the chunked one.
func plainTape(events []trace.Event) (*xfer.Tape, error) {
	t := &xfer.Tape{}
	sc := xfer.NewScanner()
	transfer := func(kind xfer.OpKind, tr xfer.Transfer) {
		t.Ops = append(t.Ops, xfer.Op{Kind: kind, Time: tr.Time, Xfer: int32(len(t.Transfers))})
		t.Transfers = append(t.Transfers, tr)
		t.OldSizes = append(t.OldSizes, sc.KnownSize(tr.File))
	}
	sc.OnTransfer = func(tr xfer.Transfer) { transfer(xfer.OpTransfer, tr) }
	for _, e := range events {
		n := len(t.Ops)
		switch e.Kind {
		case trace.KindCreate, trace.KindUnlink:
			t.Ops = append(t.Ops, xfer.Op{Kind: xfer.OpPurge, Time: e.Time, File: e.File})
		case trace.KindTruncate:
			t.Ops = append(t.Ops, xfer.Op{Kind: xfer.OpPurge, Time: e.Time, File: e.File, Size: e.Size})
		case trace.KindExec:
			if e.Size > 0 {
				transfer(xfer.OpExec, xfer.Transfer{Time: e.Time, Start: e.Time, File: e.File, User: e.User,
					Length: e.Size, Mode: trace.ReadOnly})
			}
		}
		sc.Feed(e)
		if len(t.Ops) == n {
			if n > 0 && t.Ops[n-1].Kind == xfer.OpAdvance {
				t.Ops[n-1].Time = e.Time
			} else {
				t.Ops = append(t.Ops, xfer.Op{Kind: xfer.OpAdvance, Time: e.Time})
			}
		}
	}
	t.Unclosed = sc.Finish()
	if errs := sc.Errs(); len(errs) > 0 {
		return nil, errs[0]
	}
	return t, nil
}

// chunkLen returns the number of elements a full trace.Chunks chunk
// holds.
func chunkLen() int {
	var c trace.Chunks[int]
	for len(c) < 2 {
		c.Append(0)
	}
	return c.Len() - 1
}

// boundaryTrace returns a trace whose tape fills its first chunk of n
// ops with n-1 purges and an open's clock advance, into which a second
// open, the trace's event n, folds its own. Reads, writes, truncates and
// execs then take the tape past three chunks of ops and of transfers,
// and the trace ends with an open left unclosed.
func boundaryTrace(n int) []trace.Event {
	var events []trace.Event
	var now trace.Time
	add := func(e trace.Event) {
		now += 7
		e.Time = now
		events = append(events, e)
	}
	for i := 1; i < n; i++ {
		add(trace.Event{Kind: trace.KindUnlink, File: trace.FileID(i)})
	}
	id := trace.OpenID(1)
	add(trace.Event{Kind: trace.KindOpen, OpenID: id, File: 1, User: 1, Mode: trace.ReadOnly, Size: 5000})
	add(trace.Event{Kind: trace.KindOpen, OpenID: id + 1, File: 2, User: 1, Mode: trace.ReadOnly, Size: 300})
	add(trace.Event{Kind: trace.KindClose, OpenID: id, NewPos: 5000})
	add(trace.Event{Kind: trace.KindClose, OpenID: id + 1, NewPos: 300})
	for i := 0; i < 3*n; i++ {
		id += 2
		f := trace.FileID(i%50 + 1)
		size := int64(i%7+1) * 1500
		switch i % 4 {
		case 0:
			add(trace.Event{Kind: trace.KindCreate, OpenID: id, File: f, User: 2, Mode: trace.WriteOnly})
			add(trace.Event{Kind: trace.KindClose, OpenID: id, NewPos: size})
		case 1:
			add(trace.Event{Kind: trace.KindOpen, OpenID: id, File: f, User: 3, Mode: trace.ReadOnly, Size: size})
			add(trace.Event{Kind: trace.KindClose, OpenID: id, NewPos: size})
		case 2:
			add(trace.Event{Kind: trace.KindTruncate, File: f, Size: size / 2})
			add(trace.Event{Kind: trace.KindExec, File: f + 100, User: 4, Size: size})
		case 3:
			add(trace.Event{Kind: trace.KindOpen, OpenID: id, File: f, User: 3, Mode: trace.ReadWrite, Size: size})
			add(trace.Event{Kind: trace.KindClose, OpenID: id, NewPos: size + 700})
		}
	}
	add(trace.Event{Kind: trace.KindOpen, OpenID: id + 2, File: 7, User: 5, Mode: trace.ReadOnly, Size: 100})
	return events
}

// TestChunkedBuilderMatchesPlainAppend: the tape builder's chunked lists
// give exactly the tape that one slice per list gives, through NewTape,
// BuildTape and an analyzer stream's AttachTape, on a trace more than
// three chunks long whose first chunk ends in a folded advance; and
// Finish sizes every list exactly.
func TestChunkedBuilderMatchesPlainAppend(t *testing.T) {
	n := chunkLen()
	events := boundaryTrace(n)
	want, err := plainTape(events)
	if err != nil {
		t.Fatal(err)
	}
	if op := want.Ops[n-1]; op.Kind != xfer.OpAdvance || op.Time != events[n].Time {
		t.Fatalf("op %d is %+v, want an advance folded to event %d's time", n-1, op, n)
	}
	if len(want.Ops) <= 3*n || len(want.Transfers) <= 3*n || want.Unclosed != 1 {
		t.Fatalf("%d ops, %d transfers and %d unclosed opens; want more than %d ops and transfers and 1 unclosed",
			len(want.Ops), len(want.Transfers), want.Unclosed, 3*n)
	}

	built := func(tape *xfer.Tape, err error) func() (*xfer.Tape, error) {
		return func() (*xfer.Tape, error) { return tape, err }
	}
	attached := func() (*xfer.Tape, error) {
		s := analyzer.NewStream(analyzer.Options{})
		tb := s.AttachTape()
		for _, e := range events {
			s.Feed(e)
		}
		s.Finish()
		return tb.Finish()
	}
	for name, build := range map[string]func() (*xfer.Tape, error){
		"NewTape":    built(xfer.NewTape(events)),
		"BuildTape":  built(xfer.BuildTape(trace.NewSliceSource(events))),
		"AttachTape": attached,
	} {
		got, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got.Ops, want.Ops) || !slices.Equal(got.Transfers, want.Transfers) ||
			!slices.Equal(got.OldSizes, want.OldSizes) || got.Unclosed != want.Unclosed {
			t.Errorf("%s: %d ops and %d transfers, plain append %d and %d, or they differ",
				name, len(got.Ops), len(got.Transfers), len(want.Ops), len(want.Transfers))
		}
		if sizes := fmt.Sprint(cap(got.Ops)-len(got.Ops), cap(got.Transfers)-len(got.Transfers),
			cap(got.OldSizes)-len(got.OldSizes)); sizes != "0 0 0" {
			t.Errorf("%s: spare capacity %s in Ops, Transfers and OldSizes, want none", name, sizes)
		}
	}
}
