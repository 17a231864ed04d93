package trace

import "io"

// Source is a pull-stream of events in non-decreasing time order, read a
// batch at a time. *Reader satisfies Source, so any binary trace file can
// be consumed as a stream, and MergeSource combines several Sources into
// one without materializing any of them.
//
// Source is the seam between the streaming halves of the repository: the
// workload generator emits shard streams, MergeSource interleaves them,
// and the analyzer and tape builder consume the merged stream batch by
// batch, so no stage ever needs the whole trace in memory.
//
// The batch contract:
//
//   - NextBatch(buf) fills a prefix of buf and returns how many events it
//     wrote. It returns n > 0 with a nil error, or n == 0 with a non-nil
//     error (io.EOF at a clean end of stream) — never both, so consumers
//     process buf[:n] unconditionally and check the error only when no
//     events arrived. A zero-length buf reads (0, nil).
//   - A call may return fewer events than len(buf) for any reason;
//     batch boundaries carry no meaning. Splitting a stream into batches
//     differently must not change the concatenated event sequence.
//   - Errors are sticky: after a source returns an error (including
//     io.EOF), subsequent calls return an error again. A source whose
//     input fails after it has filled part of a batch returns the
//     partial batch and lets the error surface on the following call.
//
// The sourcetest package holds the conformance suite that pins these
// semantics for every implementation.
type Source interface {
	NextBatch(buf []Event) (n int, err error)
}

// Compile-time check: a binary trace reader is a Source.
var _ Source = (*Reader)(nil)

// Each calls f for every event of src in order, reading through a pooled
// batch. It returns nil at io.EOF, and otherwise the first error from src
// or from f. It is the drain for consumers that handle one event at a
// time; loops that do work once per batch call NextBatch themselves.
func Each(src Source, f func(Event) error) error {
	buf := GetBatch()
	defer PutBatch(buf)
	for {
		n, err := src.NextBatch(buf)
		for _, e := range buf[:n] {
			if ferr := f(e); ferr != nil {
				return ferr
			}
		}
		if n == 0 {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// ReadSource drains a Source into memory, for tests and small traces.
func ReadSource(src Source) ([]Event, error) {
	var out []Event
	err := Each(src, func(e Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// Cursor reads a Source one event at a time through a pooled batch. It is
// the input side of the stream transforms — MergeSource, RecoverSource
// and the fault package's mangler consume their inputs event by event
// without an interface call per event. The batch returns to the pool
// when the source ends.
type Cursor struct {
	src Source
	buf []Event
	pos int
}

// NewCursor returns a cursor at the start of src.
func NewCursor(src Source) *Cursor { return &Cursor{src: src} }

// Next returns the next event, or the source's terminal error (io.EOF at
// a clean end) once every event before it has been returned.
func (c *Cursor) Next() (Event, error) {
	if c.pos < len(c.buf) {
		e := c.buf[c.pos]
		c.pos++
		return e, nil
	}
	return c.fill()
}

// fill reads the next batch and returns its first event. At the end of
// the stream the batch goes back to the pool; the source's sticky error
// answers any later call.
func (c *Cursor) fill() (Event, error) {
	buf := c.buf[:cap(c.buf)]
	if buf == nil {
		buf = GetBatch()
	}
	n, err := c.src.NextBatch(buf)
	if n == 0 {
		PutBatch(buf)
		c.buf, c.pos = nil, 0
		return Event{}, err
	}
	c.buf, c.pos = buf[:n], 1
	return buf[0], nil
}

// SliceSource adapts an in-memory event slice to a Source. It never
// returns an error other than io.EOF.
type SliceSource struct {
	events []Event
	pos    int
}

// NewSliceSource returns a Source that yields events in order.
func NewSliceSource(events []Event) *SliceSource {
	return &SliceSource{events: events}
}

// NextBatch copies pending events into buf: a batch is one memcpy from
// the backing slice.
func (s *SliceSource) NextBatch(buf []Event) (int, error) {
	if len(buf) == 0 {
		return 0, nil // a zero-length buffer is a no-op read
	}
	if s.pos >= len(s.events) {
		return 0, io.EOF
	}
	n := copy(buf, s.events[s.pos:])
	s.pos += n
	return n, nil
}
