package obs

import (
	"io"
	"testing"

	"bsdtrace/internal/trace"
)

func makeEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{
			Time:   trace.Time(i),
			Kind:   trace.KindSeek,
			OpenID: trace.OpenID(1),
			Size:   int64(i),
		}
	}
	return events
}

func TestInstrumentDisabledReturnsSourceUnchanged(t *testing.T) {
	src := trace.NewSliceSource(makeEvents(4))
	if got := NewRegistry().Instrument("stage", src); got != trace.Source(src) {
		t.Fatal("disabled registry wrapped the source instead of returning it unchanged")
	}
	var nilReg *Registry
	if got := nilReg.Instrument("stage", src); got != trace.Source(src) {
		t.Fatal("nil registry wrapped the source instead of returning it unchanged")
	}
}

func TestInstrumentCountsAndEndsOnEOF(t *testing.T) {
	const n = 1000
	reg := NewRegistry()
	reg.SetEnabled(true)
	src := reg.Instrument("stage", trace.NewSliceSource(makeEvents(n)))
	is, ok := src.(*InstrumentedSource)
	if !ok {
		t.Fatalf("enabled registry returned %T, want *InstrumentedSource", src)
	}
	one := make([]trace.Event, 1)
	for {
		if _, err := src.NextBatch(one); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	sp := is.span
	if got := sp.EventsOut(); got != n {
		t.Fatalf("span counted %d events, want %d", got, n)
	}
	spans := reg.Spans()
	if len(spans) != 1 || spans[0] != sp {
		t.Fatalf("registry spans = %v, want the one instrument span", spans)
	}
	// EOF must have ended the span: its wall time is frozen.
	w1, w2 := sp.Wall(), sp.Wall()
	if w1 != w2 {
		t.Fatal("span still running after EOF: wall time not frozen")
	}
}

func TestSpanSourceNilPassThrough(t *testing.T) {
	src := trace.NewSliceSource(makeEvents(1))
	if got := SpanSource(nil, src); got != trace.Source(src) {
		t.Fatal("SpanSource(nil, src) wrapped the source")
	}
}

// TestInstrumentDisabledZeroAllocs pins the disabled path's overhead
// contract: consuming events one at a time through a disabled registry's
// Instrument allocates nothing per event.
func TestInstrumentDisabledZeroAllocs(t *testing.T) {
	events := makeEvents(1 << 16)
	src := NewRegistry().Instrument("stage", trace.NewSliceSource(events))
	one := make([]trace.Event, 1)
	if avg := testing.AllocsPerRun(10000, func() {
		if _, err := src.NextBatch(one); err != nil {
			t.Fatal("source exhausted mid-measurement")
		}
	}); avg != 0 {
		t.Fatalf("disabled instrumented one-event NextBatch allocates %.2f per event, want 0", avg)
	}
}

// TestInstrumentEnabledZeroAllocs pins the enabled path too: the wrapper
// adds an atomic increment, never an allocation.
func TestInstrumentEnabledZeroAllocs(t *testing.T) {
	events := makeEvents(1 << 16)
	reg := NewRegistry()
	reg.SetEnabled(true)
	src := reg.Instrument("stage", trace.NewSliceSource(events))
	one := make([]trace.Event, 1)
	if avg := testing.AllocsPerRun(10000, func() {
		if _, err := src.NextBatch(one); err != nil {
			t.Fatal("source exhausted mid-measurement")
		}
	}); avg != 0 {
		t.Fatalf("enabled instrumented one-event NextBatch allocates %.2f per event, want 0", avg)
	}
}

// BenchmarkBareSliceSource is the baseline for
// BenchmarkInstrumentedSource: the same drain loop with no wrapper.
func BenchmarkBareSliceSource(b *testing.B) {
	events := makeEvents(1 << 16)
	src := trace.NewSliceSource(events)
	one := make([]trace.Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.NextBatch(one); err != nil {
			src = trace.NewSliceSource(events)
		}
	}
}

// BenchmarkInstrumentedSource measures the per-event cost of the
// counting wrapper against BenchmarkBareSliceSource.
func BenchmarkInstrumentedSource(b *testing.B) {
	events := makeEvents(1 << 16)
	reg := NewRegistry()
	reg.SetEnabled(true)
	src := reg.Instrument("bench", trace.NewSliceSource(events))
	one := make([]trace.Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.NextBatch(one); err != nil {
			src = reg.Instrument("bench", trace.NewSliceSource(events))
		}
	}
}

// BenchmarkInstrumentedSourceDisabled measures the disabled path, which
// should be indistinguishable from the bare baseline.
func BenchmarkInstrumentedSourceDisabled(b *testing.B) {
	events := makeEvents(1 << 16)
	reg := NewRegistry()
	src := reg.Instrument("bench", trace.NewSliceSource(events))
	one := make([]trace.Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.NextBatch(one); err != nil {
			src = reg.Instrument("bench", trace.NewSliceSource(events))
		}
	}
}
