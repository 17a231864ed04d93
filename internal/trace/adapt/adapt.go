// Package adapt imports foreign trace formats into the native pipeline.
//
// The whole repository consumes trace.Source, so running the 1985
// analysis on a modern real-world trace only needs an importer that
// re-encodes foreign records into the native event vocabulary. Three
// importers are provided:
//
//   - BlockCSV reads MSR-Cambridge-style block traces: one CSV line per
//     device request (timestamp, hostname, disk, R/W, offset, size).
//   - PageRef reads the classic buffer-manager benchmark format: one
//     "x, ###" page reference per line, 0=read 1=write.
//   - Strace reads strace-shaped syscall logs: open/read/write/lseek/
//     close lines with fds and return values.
//
// Each adapter emits well-formed native events. Block and page records
// become one open → seek → close triple per request, chosen so the xfer
// scanner reconstructs exactly the foreign transfer and nothing else;
// strace logs carry real logical structure, so they translate nearly
// one-to-one (reads and writes advance an implicit sequential position,
// exactly the paper's no-read-write model, and surface through close and
// seek positions). Every adapter declares its trace.Class, which the
// analyzer's metric sets check before rendering logical-only tables.
//
// Adapter laws, pinned by the adapttest conformance suite:
//
//   - events are emitted in non-decreasing time order; a foreign
//     timestamp that runs backwards is clamped up to the previous time
//     (counted in Stats.ClampedTimes), never reordered;
//   - the emitted event kinds are consistent with the declared class
//     (block and page traces produce only open/seek/close);
//   - parsing is deterministic: two passes over the same bytes yield
//     identical event streams;
//   - terminal errors are sticky and carry the 1-based line number.
package adapt

import (
	"bufio"
	"fmt"
	"io"

	"bsdtrace/internal/trace"
)

// Format names an input trace format the commands accept via -format.
type Format int

// The supported formats. FormatBSD is the native format (binary or
// text); the rest are foreign and have adapters in this package.
const (
	FormatBSD Format = iota
	FormatBlockCSV
	FormatPageRef
	FormatStrace
)

// String returns the canonical -format flag value.
func (f Format) String() string {
	switch f {
	case FormatBSD:
		return "bsd"
	case FormatBlockCSV:
		return "blockcsv"
	case FormatPageRef:
		return "pageref"
	case FormatStrace:
		return "strace"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// Class returns the trace class a format's records carry.
func (f Format) Class() trace.Class {
	switch f {
	case FormatBlockCSV:
		return trace.ClassBlock
	case FormatPageRef:
		return trace.ClassPage
	default:
		return trace.ClassLogical
	}
}

// ParseFormat resolves a -format flag value (with aliases) to a Format.
func ParseFormat(name string) (Format, error) {
	switch name {
	case "", "bsd", "binary", "native":
		return FormatBSD, nil
	case "blockcsv", "msr", "block":
		return FormatBlockCSV, nil
	case "pageref", "zipf", "page":
		return FormatPageRef, nil
	case "strace", "syscall":
		return FormatStrace, nil
	}
	return 0, fmt.Errorf("adapt: unknown trace format %q (want bsd, blockcsv, pageref, or strace)", name)
}

// Source is the interface every adapter satisfies: a classed event
// stream with ingest statistics.
type Source interface {
	trace.ClassedSource
	Stats() Stats
}

// NewSource returns the adapter for a foreign format reading from r.
// FormatBSD is not a foreign format and has no adapter: NewInput reads
// every format, the native one included.
func NewSource(f Format, r io.Reader) (Source, error) {
	switch f {
	case FormatBlockCSV:
		return NewBlockCSV(r, BlockCSVConfig{}), nil
	case FormatPageRef:
		return NewPageRef(r), nil
	case FormatStrace:
		return NewStrace(r), nil
	}
	return nil, fmt.Errorf("adapt: no adapter for format %v", f)
}

// Byte-quantity sanity caps. Foreign traces describe real devices, so a
// request offset beyond 64 PB, a single request larger than 1 GB, or a
// syscall moving more than 64 PB is evidence of a damaged line, not a
// big machine — and rejecting them keeps every derived position inside
// int64 and keeps per-block bookkeeping loops bounded.
const (
	maxIOOffset   = int64(1) << 56 // largest accepted offset/position/length argument
	maxIORequest  = int64(1) << 30 // largest accepted single block-request size
	maxBlockShift = 20             // page numbers stay below maxIOOffset>>maxBlockShift
)

// unitSize is the block adapter's alignment unit and the page adapter's
// page size: 4 kbytes, the paper's simulated block size.
const unitSize = 4096

// Stats counts what an adapter did with its input. The accounting
// identity every adapter maintains: Lines = Records + Skipped + (1 if a
// terminal parse error ended the stream early, attributed to no bucket).
type Stats struct {
	// Lines is the number of input lines consumed (including skipped
	// ones, excluding a line that failed to parse).
	Lines int64
	// Records is the number of foreign records accepted and re-encoded.
	Records int64
	// Events is the number of native events emitted.
	Events int64
	// Skipped counts ignorable lines: blanks, comments, CSV headers,
	// strace noise (signals, exits, unknown syscalls, failed calls).
	Skipped int64
	// ClampedTimes counts records whose timestamp ran backwards and was
	// pulled up to the previous event's time.
	ClampedTimes int64
	// WarmupBlocks counts distinct blocks first referenced by a read
	// (block traces only): data that predates the trace.
	WarmupBlocks int64
	// SkippedReads counts read requests dropped by the warmup-skip
	// option (block traces only).
	SkippedReads int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d lines: %d records -> %d events, %d skipped, %d clamped times",
		s.Lines, s.Records, s.Events, s.Skipped, s.ClampedTimes)
}

// lineScanner wraps bufio.Scanner with line counting and a generous
// buffer (strace lines quote whole write payloads).
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &lineScanner{sc: sc}
}

// next returns the next line and its 1-based number, or io.EOF.
func (s *lineScanner) next() (string, int, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return "", s.line, err
		}
		return "", s.line, io.EOF
	}
	s.line++
	return s.sc.Text(), s.line, nil
}

// timeline normalizes foreign timestamps: the first record defines time
// zero, and later times are clamped monotone non-decreasing.
type timeline struct {
	base    trace.Time
	prev    trace.Time
	started bool
}

// clamp rebases t against the first observed timestamp and pulls it up
// to the previous emission time if it ran backwards. It reports whether
// clamping happened.
func (tl *timeline) clamp(t trace.Time) (trace.Time, bool) {
	if !tl.started {
		tl.base = t
		tl.prev = 0
		tl.started = true
		return 0, false
	}
	t -= tl.base
	if t < tl.prev {
		return tl.prev, true
	}
	tl.prev = t
	return t, false
}

// emitter is the shared event-queue half of an adapter: parsed records
// push a short burst of native events, fill copies them out a batch at a
// time, and terminal errors (parse failures, read errors, io.EOF) are
// sticky.
type emitter struct {
	pending []trace.Event
	pos     int
	err     error
	stats   Stats
}

func (em *emitter) push(e trace.Event) {
	em.pending = append(em.pending, e)
	em.stats.Events++
}

// fill is an adapter's NextBatch: it copies queued events into buf,
// calling parse to consume one more input line whenever the queue runs
// dry, until buf is full or parse fails. A failure after a partial batch
// waits for the next call.
func (em *emitter) fill(buf []trace.Event, parse func() error) (int, error) {
	n := 0
	for n < len(buf) {
		if em.pos < len(em.pending) {
			k := copy(buf[n:], em.pending[em.pos:])
			em.pos += k
			n += k
			continue
		}
		em.pending, em.pos = em.pending[:0], 0
		if em.err == nil {
			em.err = parse()
		}
		if em.err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, em.err
		}
	}
	return n, nil
}
