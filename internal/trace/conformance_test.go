package trace_test

import (
	"bytes"
	"sort"
	"testing"

	"bsdtrace/internal/trace"
	"bsdtrace/internal/trace/sourcetest"
)

// wellFormedTrace builds a valid event stream — times strictly
// increasing, every close matching a live open, every file introduced
// before it is referenced — so the repair sources are exact no-ops
// over it and every source implementation can share one `want`.
func wellFormedTrace(n int) []trace.Event {
	var events []trace.Event
	t := trace.Time(0)
	for i := 0; i < n; i++ {
		id := trace.OpenID(i + 1)
		file := trace.FileID(i + 1)
		user := trace.UserID(i%3 + 1)
		t += 10
		events = append(events, trace.Event{Time: t, Kind: trace.KindCreate,
			OpenID: id, File: file, User: user, Mode: trace.WriteOnly})
		t += 10
		events = append(events, trace.Event{Time: t, Kind: trace.KindClose,
			OpenID: id, NewPos: int64(512 * (i + 1))})
		t += 10
		events = append(events, trace.Event{Time: t, Kind: trace.KindOpen,
			OpenID: id, File: file, User: user, Mode: trace.ReadOnly, Size: int64(512 * (i + 1))})
		t += 10
		events = append(events, trace.Event{Time: t, Kind: trace.KindClose,
			OpenID: id, NewPos: int64(512 * (i + 1))})
	}
	return events
}

// seekTrace builds n overlapping opens, each with a seek and a close
// that fall while later opens are live, in time order.
func seekTrace(n int) []trace.Event {
	var events []trace.Event
	for i := 0; i < n; i++ {
		id, t := trace.OpenID(i+1), trace.Time(10*i)
		events = append(events,
			trace.Event{Time: t, Kind: trace.KindOpen, OpenID: id, File: trace.FileID(i + 1), User: 1, Size: 4096},
			trace.Event{Time: t + 25, Kind: trace.KindSeek, OpenID: id, OldPos: 100, NewPos: 2000},
			trace.Event{Time: t + 50, Kind: trace.KindClose, OpenID: id, NewPos: 4096})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}

func encode(t *testing.T, events []trace.Event, v2 bool, interval int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if v2 {
		w = trace.NewWriterV2(&buf, interval)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSourceConformance runs every Source implementation in the package
// through the shared pull-stream conformance suite.
func TestSourceConformance(t *testing.T) {
	want := wellFormedTrace(100) // 400 events: spans several default batches

	reader := func(v2 bool, interval int) sourcetest.Factory {
		data := encode(t, want, v2, interval)
		return func(t *testing.T) trace.Source {
			r, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
	}

	// MergeSource remaps identifiers across its inputs (each input is
	// one machine of a fleet), so its `want` is the merge oracle over
	// the same strands.
	strands := make([][]trace.Event, 3)
	for i, e := range want {
		strands[i%3] = append(strands[i%3], e)
	}
	mkMerge := func(t *testing.T) trace.Source {
		srcs := make([]trace.Source, len(strands))
		for i := range strands {
			srcs[i] = trace.NewSliceSource(strands[i])
		}
		return trace.NewMergeSource(srcs...)
	}

	// Damaged input. Dropping the close of every other create makes the
	// following open reuse a live id, so RecoverSource synthesizes the
	// lost close, and a batch that fills on it holds the open over.
	var reused, repaired []trace.Event
	for i := 0; i < len(want); i += 4 {
		create, closeEv, open, last := want[i], want[i+1], want[i+2], want[i+3]
		if i%8 == 0 {
			reused = append(reused, create, open, last)
			repaired = append(repaired, create,
				trace.Event{Time: open.Time, Kind: trace.KindClose, OpenID: open.OpenID},
				open, last)
			continue
		}
		reused = append(reused, create, closeEv, open, last)
		repaired = append(repaired, create, closeEv, open, last)
	}

	// A window cut through overlapping opens drops the seeks and closes
	// of the opens that began before it.
	seeks := seekTrace(100)
	from, to := seeks[len(seeks)/3].Time, seeks[2*len(seeks)/3].Time
	windowWant := trace.WindowOracle(seeks, from, to)
	inside := 0
	for _, e := range seeks {
		if e.Time >= from && e.Time < to {
			inside++
		}
	}
	if len(windowWant) >= inside {
		t.Fatalf("window cut keeps %d of %d events: it drops nothing", len(windowWant), inside)
	}

	cases := []struct {
		name string
		mk   sourcetest.Factory
		want []trace.Event
	}{
		{"slice", func(t *testing.T) trace.Source {
			return trace.NewSliceSource(want)
		}, want},
		{"slice-empty", func(t *testing.T) trace.Source {
			return trace.NewSliceSource(nil)
		}, nil},
		{"reader-v1", reader(false, 0), want},
		{"reader-v2", reader(true, 7), want},
		{"merge", mkMerge, trace.MergeOracle(strands...)},
		{"merge-empty", func(t *testing.T) trace.Source {
			return trace.NewMergeSource()
		}, nil},
		{"recover", func(t *testing.T) trace.Source {
			return trace.NewRecoverSource(trace.NewSliceSource(want))
		}, want},
		{"recover-reuse", func(t *testing.T) trace.Source {
			return trace.NewRecoverSource(trace.NewSliceSource(reused))
		}, repaired},
		{"window-cut", func(t *testing.T) trace.Source {
			return trace.WindowSource(trace.NewSliceSource(seeks), from, to)
		}, windowWant},
		{"lenient", func(t *testing.T) trace.Source {
			return trace.NewLenientSource(trace.NewSliceSource(want))
		}, want},
		{"fanout-sub", func(t *testing.T) trace.Source {
			f := trace.NewFanout(1)
			sub := f.Source(0)
			t.Cleanup(sub.Cancel)
			go func() {
				for _, e := range want {
					if f.Write(e) != nil {
						break
					}
				}
				f.Close(nil)
			}()
			return sub
		}, want},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sourcetest.Run(t, tc.mk, tc.want)
		})
	}
}

// TestLenientTruncatedConformance: over a v1 stream cut mid-record,
// LenientSource ends at the last whole record with a clean, repeating
// io.EOF and keeps the decode error for Truncated.
func TestLenientTruncatedConformance(t *testing.T) {
	want := wellFormedTrace(100)
	data := encode(t, want, false, 0)
	cut := data[:len(data)-3] // mid-record truncation
	good := len(want) - 1     // the cut lands inside the last record
	var last *trace.LenientSource
	sourcetest.Run(t, func(t *testing.T) trace.Source {
		r, err := trace.NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		last = trace.NewLenientSource(r)
		return last
	}, want[:good])
	if last.Truncated() == nil {
		t.Fatal("Truncated() = nil after a mid-record cut")
	}
}

// TestReaderStickyError pins terminal-error stickiness on the v1
// reader: a truncated stream keeps reporting the same decode error on
// every call after the first, through both access paths, with the
// intact prefix delivered.
func TestReaderStickyError(t *testing.T) {
	want := wellFormedTrace(100)
	data := encode(t, want, false, 0)
	cut := data[:len(data)-3] // mid-record truncation

	// Count the events the truncated stream still decodes cleanly.
	r, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	for {
		if _, err := r.Next(); err != nil {
			break
		}
		good++
	}
	if good == 0 || good >= len(want) {
		t.Fatalf("truncation produced %d good events of %d; want a mid-stream error", good, len(want))
	}

	sourcetest.RunSticky(t, func(t *testing.T) trace.Source {
		r, err := trace.NewReader(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}, good)
}
