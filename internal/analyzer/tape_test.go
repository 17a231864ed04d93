package analyzer

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/workload"
	"bsdtrace/internal/xfer"
)

// malformedTrace reuses an open ID, closes an unknown open, and leaves
// one open unclosed.
func malformedTrace() []trace.Event {
	return []trace.Event{
		open(1, 1, 1, 1, trace.ReadOnly, 5000),
		seek(2, 1, 1000, 3000),
		open(3, 1, 2, 1, trace.ReadOnly, 100),
		closeEv(4, 9, 50),
		create(5, 2, 3, 2),
		{Time: 6, Kind: trace.KindExec, File: 4, User: 1, Size: 300},
		closeEv(7, 1, 5000),
		unlink(8, 1),
	}
}

// TestAttachedTapeEqualsBuildTape: a tape built on the stream's own scan
// is the tape xfer.BuildTape builds over the same events, with the same
// complaint on a malformed stream, and carrying it changes no number of
// the analysis.
func TestAttachedTapeEqualsBuildTape(t *testing.T) {
	d := 8 * trace.Hour
	if testing.Short() {
		d = trace.Hour
	}
	res, err := workload.Generate(workload.Config{Profile: "A5", Seed: 1, Duration: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		events []trace.Event
	}{{"A5", res.Events}, {"malformed", malformedTrace()}} {
		want, wantErr := xfer.BuildTape(trace.NewSliceSource(c.events))
		plain := NewStream(Options{})
		s := NewStream(Options{})
		tb := s.AttachTape()
		for _, e := range c.events {
			plain.Feed(e)
			s.Feed(e)
		}
		a := s.Finish()
		if !reflect.DeepEqual(a, plain.Finish()) {
			t.Errorf("%s: carrying a tape changed the analysis", c.name)
		}
		got, gotErr := tb.Finish()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: attached builder error %v, want %v", c.name, gotErr, wantErr)
		}
		if wantErr != nil {
			if a.Overall.UnclosedOpens != 1 {
				t.Errorf("%s: UnclosedOpens = %d, want 1", c.name, a.Overall.UnclosedOpens)
			}
			continue
		}
		if !slices.Equal(got.Ops, want.Ops) || !slices.Equal(got.Transfers, want.Transfers) ||
			!slices.Equal(got.OldSizes, want.OldSizes) {
			t.Errorf("%s: attached tape has %d ops and %d transfers, want %d and %d, or they differ",
				c.name, len(got.Ops), len(got.Transfers), len(want.Ops), len(want.Transfers))
		}
		if got.Unclosed != want.Unclosed || a.Overall.UnclosedOpens != want.Unclosed {
			t.Errorf("%s: Unclosed %d and UnclosedOpens %d, want %d",
				c.name, got.Unclosed, a.Overall.UnclosedOpens, want.Unclosed)
		}
	}
}

// TestStreamWithTapeNotCheckpointed: a checkpoint holds no tape, so a
// stream carrying one refuses to marshal rather than drop it.
func TestStreamWithTapeNotCheckpointed(t *testing.T) {
	s := NewStream(Options{})
	s.AttachTape()
	s.Feed(open(1, 1, 1, 1, trace.ReadOnly, 100))
	if _, err := s.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary of a stream carrying a tape succeeded")
	}
}
