package obs

import (
	"io"

	"bsdtrace/internal/trace"
)

// InstrumentedSource wraps a trace.Source in a counting span: every
// event that flows through increments the span's events-out total, and
// a clean EOF ends the span, so the span's wall time covers exactly the
// stage's consumption window. NextBatch adds one predictable branch and
// one atomic add per batch and never allocates (the overhead guard in
// source_test.go pins this).
type InstrumentedSource struct {
	src  trace.Source
	span *Span
}

// Instrument wraps src in an event-counting span registered under name.
// When the registry is nil or disabled it returns src unchanged — the
// disabled path adds nothing at all to the pipeline.
func (r *Registry) Instrument(name string, src trace.Source) trace.Source {
	if !r.Enabled() {
		return src
	}
	return &InstrumentedSource{src: src, span: r.StartSpan(name)}
}

// SpanSource wraps src so every event it yields counts into an existing
// span's events-out total and a clean EOF ends the span. It is
// Instrument for callers that already hold the stage span. Returns src
// unchanged when sp is nil.
func SpanSource(sp *Span, src trace.Source) trace.Source {
	if sp == nil {
		return src
	}
	return &InstrumentedSource{src: src, span: sp}
}

// NextBatch counts a whole batch with one atomic add, so instrumentation
// overhead on the batched paths is amortized to nothing.
func (s *InstrumentedSource) NextBatch(buf []trace.Event) (int, error) {
	n, err := s.src.NextBatch(buf)
	if n > 0 {
		s.span.eventsOut.Add(int64(n))
	} else if err == io.EOF {
		s.span.End()
	}
	return n, err
}
