// Package sourcetest is the shared conformance suite for trace.Source
// implementations. Every source in the tree — slice, codec reader,
// k-way merge, recovery, lenient ingestion, windowing, shard streams,
// fan-out subscribers, instrumented wrappers, adapters, the fault
// mangler — runs the same checks, so the batch contract is pinned in one
// place instead of being re-derived (slightly differently) in every
// package:
//
//   - NextBatch delivers exactly the same events for any buffer size —
//     batch boundaries carry no meaning — and so does a drain that
//     changes the buffer size from call to call ("interleaved", which
//     alternates one-event reads with larger ones);
//   - a per-event drain through trace.Each ("next") yields the same
//     events;
//   - NextBatch returns n > 0 with a nil error XOR n == 0 with a
//     non-nil error, and a zero-length buffer reads (0, nil);
//   - io.EOF repeats on every further call (idempotent end of stream).
//
// Implementations are supplied as factories because the suite drains
// each source several times, once per access pattern.
package sourcetest

import (
	"errors"
	"io"
	"testing"

	"bsdtrace/internal/trace"
)

// Factory builds a fresh instance of the source under test positioned
// at the start of its stream. It is called once per access pattern.
type Factory func(t *testing.T) trace.Source

// Run drains sources built by mk through every access pattern and
// fails t unless each drain yields exactly want followed by a clean,
// idempotent io.EOF.
func Run(t *testing.T, mk Factory, want []trace.Event) {
	t.Helper()

	t.Run("next", func(t *testing.T) {
		src := mk(t)
		var got []trace.Event
		if err := trace.Each(src, func(e trace.Event) error {
			got = append(got, e)
			return nil
		}); err != nil {
			t.Fatalf("Each: %v", err)
		}
		equal(t, got, want)
		checkEOFIdempotent(t, src, 1)
	})

	for _, size := range []int{1, 3, 7, trace.DefaultBatchSize} {
		if size > len(want)+1 && size != trace.DefaultBatchSize {
			continue
		}
		t.Run("batch", func(t *testing.T) {
			src := mk(t)
			got := drain(t, src, []int{size})
			equal(t, got, want)
			checkEOFIdempotent(t, src, size)
		})
	}

	t.Run("empty-buffer", func(t *testing.T) {
		src := mk(t)
		// A zero-length buffer is a no-op read, not an end-of-stream
		// probe: (0, nil), before and in the middle of the stream.
		if n, err := src.NextBatch(nil); n != 0 || err != nil {
			t.Fatalf("NextBatch(nil) at start = (%d, %v), want (0, nil)", n, err)
		}
		if len(want) > 0 {
			if _, err := src.NextBatch(make([]trace.Event, 1)); err != nil {
				t.Fatalf("NextBatch after empty read: %v", err)
			}
			if n, err := src.NextBatch(nil); n != 0 || err != nil {
				t.Fatalf("NextBatch(nil) mid-stream = (%d, %v), want (0, nil)", n, err)
			}
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		src := mk(t)
		got := drain(t, src, []int{1, 1, 1, 4, 1, 2, 1, 9})
		equal(t, got, want)
		checkEOFIdempotent(t, src, 1)
	})
}

// drain reads src to io.EOF, cycling through the buffer sizes from call
// to call, and checks the batch contract on every call. A source that
// holds state across calls (a pending duplicate, a synthesized close)
// must carry it over a change of buffer size.
func drain(t *testing.T, src trace.Source, sizes []int) []trace.Event {
	t.Helper()
	var got []trace.Event
	for call := 0; ; call++ {
		size := sizes[call%len(sizes)]
		buf := make([]trace.Event, size)
		n, err := src.NextBatch(buf)
		if n > 0 && err != nil {
			t.Fatalf("NextBatch size %d: n=%d with err=%v, want n>0 XOR err", size, n, err)
		}
		if n == 0 {
			if err == io.EOF {
				return got
			}
			t.Fatalf("NextBatch size %d: (0, %v), want (0, io.EOF) at end", size, err)
		}
		got = append(got, buf[:n]...)
	}
}

func checkEOFIdempotent(t *testing.T, src trace.Source, size int) {
	t.Helper()
	buf := make([]trace.Event, size)
	for i := 0; i < 3; i++ {
		n, err := src.NextBatch(buf)
		if n != 0 || err != io.EOF {
			t.Fatalf("NextBatch after EOF (call %d) = (%d, %v), want (0, io.EOF)", i+1, n, err)
		}
	}
}

func equal(t *testing.T, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// RunSticky checks terminal-error stickiness: a source whose stream
// ends in a non-EOF error must keep returning that error (or one with
// the same message) on every call after first reporting it, through
// one-event reads ("next") and multi-event reads ("batch"), with any
// events before the error delivered intact.
func RunSticky(t *testing.T, mk Factory, wantEvents int) {
	t.Helper()
	for _, tc := range []struct {
		name string
		size int
	}{{"next", 1}, {"batch", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			src := mk(t)
			buf := make([]trace.Event, tc.size)
			got := 0
			var first error
			for first == nil {
				n, err := src.NextBatch(buf)
				got += n
				if err == io.EOF {
					t.Fatal("stream ended in io.EOF, want a terminal error")
				}
				first = err
			}
			if got != wantEvents {
				t.Fatalf("drained %d events before terminal error, want %d", got, wantEvents)
			}
			for i := 0; i < 3; i++ {
				if n, err := src.NextBatch(buf); n != 0 || !sameError(err, first) {
					t.Fatalf("NextBatch after terminal error = (%d, %v), want (0, %v)", n, err, first)
				}
			}
		})
	}
}

func sameError(got, want error) bool {
	if got == nil {
		return false
	}
	return errors.Is(got, want) || got.Error() == want.Error()
}
