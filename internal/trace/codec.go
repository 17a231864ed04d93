package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The binary trace file format is a 5-byte header ("BSDT" plus a version
// byte) followed by one variable-length record per event:
//
//	kind      1 byte
//	Δtime     signed varint, milliseconds since the previous event
//	fields    per-kind varints, in the field order of Table II
//
// Delta-encoded times and varint fields keep trace files small; the 1985
// tracer had the same concern (§3: "Our main concern in gathering file
// system trace information was the volume of data").
//
// Version 2 keeps the record encoding bit-for-bit and adds periodic
// resync checkpoints between records — see checkpoint.go. A version-2
// reader verifies each segment against its checkpoint CRC before
// emitting any of its events, and on corruption skips forward to the
// next checkpoint instead of aborting, so one damaged region costs one
// segment, not the rest of the trace.

var magic = [4]byte{'B', 'S', 'D', 'T'}

// Version is the original binary format version, still the default for
// every writer: the golden report path depends on byte-identical v1
// output.
const Version = 1

// Version2 is the checkpointed format version (see checkpoint.go).
const Version2 = 2

// ErrBadHeader is returned by NewReader when the stream does not start
// with a valid trace header.
var ErrBadHeader = errors.New("trace: bad header")

// HeaderSize is the length of the header that starts every binary
// trace: the 4-byte magic and the version byte.
const HeaderSize = 5

// maxRecordLen bounds one encoded record: the kind byte and at most six
// varints (the Δtime and a create's five fields).
const maxRecordLen = 1 + 6*binary.MaxVarintLen64

// Writer encodes events to an underlying stream in the binary format.
type Writer struct {
	w     *bufio.Writer
	prev  Time
	count int64
	begun bool
	err   error
	// scratch holds one record, or one checkpoint payload, while it is
	// encoded, so a Write allocates nothing.
	scratch [maxRecordLen]byte

	// Version-2 checkpoint state. version is 1 or 2; the segment fields
	// track the records written since the last checkpoint.
	version    byte
	ckInterval int
	segCRC     uint32
	segBytes   int64
	segRecords int

	// resumed marks a writer continuing a logical stream from a nonzero
	// record index (NewResumedWriterV2): the header is followed by an
	// immediate checkpoint carrying the resume position, which a fresh
	// reader uses to restore the absolute time and record index — and to
	// account the records it never saw as skipped.
	resumed bool
}

// NewWriter creates a version-1 Writer. The header is written on the
// first event so that creating a writer is infallible.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), version: Version}
}

// NewWriterV2 creates a Writer emitting the version-2 checkpointed
// framing: a resync checkpoint every interval records (and one final
// checkpoint at Flush, so every record is covered by a CRC). interval <=
// 0 selects DefaultCheckpointInterval. Record bytes are identical to
// version 1; only the header version byte and the checkpoints differ.
func NewWriterV2(w io.Writer, interval int) *Writer {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), version: Version2, ckInterval: interval}
}

// AppendRecord appends the binary record of e, its time delta-encoded
// against prev (the time of the record before it), and returns the
// extended buffer. It is the record encoding of both format versions;
// e.Kind must be valid.
func AppendRecord(dst []byte, prev Time, e Event) []byte {
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendVarint(dst, int64(e.Time-prev))
	switch e.Kind {
	case KindCreate, KindOpen:
		dst = binary.AppendUvarint(dst, uint64(e.OpenID))
		dst = binary.AppendUvarint(dst, uint64(e.File))
		dst = binary.AppendUvarint(dst, uint64(e.User))
		dst = binary.AppendUvarint(dst, uint64(e.Mode))
		dst = binary.AppendVarint(dst, e.Size)
	case KindClose:
		dst = binary.AppendUvarint(dst, uint64(e.OpenID))
		dst = binary.AppendVarint(dst, e.NewPos)
	case KindSeek:
		dst = binary.AppendUvarint(dst, uint64(e.OpenID))
		dst = binary.AppendVarint(dst, e.OldPos)
		dst = binary.AppendVarint(dst, e.NewPos)
	case KindUnlink:
		dst = binary.AppendUvarint(dst, uint64(e.File))
	case KindTruncate:
		dst = binary.AppendUvarint(dst, uint64(e.File))
		dst = binary.AppendVarint(dst, e.Size)
	case KindExec:
		dst = binary.AppendUvarint(dst, uint64(e.File))
		dst = binary.AppendUvarint(dst, uint64(e.User))
		dst = binary.AppendVarint(dst, e.Size)
	}
	return dst
}

// recordBytes writes raw record bytes, folding them into the segment CRC
// when the checkpointed format is active.
func (w *Writer) recordBytes(p []byte) {
	if w.err != nil {
		return
	}
	if _, w.err = w.w.Write(p); w.err != nil {
		return
	}
	if w.version == Version2 {
		w.segCRC = crc32.Update(w.segCRC, crc32.IEEETable, p)
		w.segBytes += int64(len(p))
	}
}

func (w *Writer) header() error {
	if w.begun || w.err != nil {
		return w.err
	}
	if _, w.err = w.w.Write(magic[:]); w.err != nil {
		return w.err
	}
	if w.err = w.w.WriteByte(w.version); w.err != nil {
		return w.err
	}
	w.begun = true
	if w.resumed {
		// The resume checkpoint: an empty segment whose recordIdx and
		// absTime are the resume position. A reader joining here resyncs
		// off it exactly as it would off a mid-stream join, with the
		// pre-resume records counted in its SkipStats.
		w.writeCheckpoint()
	}
	return nil
}

// Write encodes one event. Events should be presented in non-decreasing
// time order; out-of-order events are still encoded correctly (the time
// delta is signed) but most consumers require ordered streams.
func (w *Writer) Write(e Event) error {
	if w.err != nil {
		return w.err
	}
	if !e.Kind.Valid() {
		return fmt.Errorf("trace: cannot encode event of kind %v", e.Kind)
	}
	if err := w.header(); err != nil {
		return err
	}
	w.recordBytes(AppendRecord(w.scratch[:0], w.prev, e))
	w.prev = e.Time
	if w.err == nil {
		w.count++
		if w.version == Version2 {
			w.segRecords++
			if w.segRecords >= w.ckInterval {
				w.writeCheckpoint()
			}
		}
	}
	return w.err
}

// Flush writes any buffered data to the underlying stream. An empty trace
// still gets a header so that readers can distinguish "empty trace" from
// "not a trace". A version-2 writer first seals any open segment with a
// checkpoint, so a flushed stream is verifiable end to end.
func (w *Writer) Flush() error {
	if err := w.header(); err != nil {
		return err
	}
	if w.version == Version2 && w.segRecords > 0 {
		w.writeCheckpoint()
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// Reader decodes events from a binary trace stream, version 1 or 2.
//
// It parses each record and checkpoint from the bytes its bufio.Reader
// already holds, and while one is incomplete it peeks one more byte, so
// it never waits for a byte past the record or checkpoint it is
// parsing: a v2 segment goes out as soon as its checkpoint arrives,
// even if the writer then stalls.
//
// A version-2 reader buffers each segment and verifies it against its
// checkpoint CRC before emitting any event; on CRC mismatch or
// undecodable bytes it discards the segment, scans forward to the next
// checkpoint, restores the delta-decoding state from the checkpoint's
// absolute snapshot, and continues. Skipped() reports what was lost.
// A read error other than io.EOF is not damage: it ends the stream with
// that error wherever it lands, and the segment it cut off counts as
// skipped. A version-1 reader fails fast, with record and byte-offset
// context on every error.
type Reader struct {
	br *bufio.Reader
	// off is the stream offset of br's next byte.
	off     int64
	prev    Time
	version byte
	// index is the absolute record index of the next event to return;
	// after a version-2 resync it realigns to the writer-side index
	// recorded in the checkpoint.
	index int64

	// Version-2 segment state: events decoded but not yet verified or
	// emitted, and the running skip accounting.
	seg    []Event
	segPos int
	skip   SkipStats
	eof    bool

	// pendErr is a stream-end or decode error encountered while a
	// NextBatch call had already decoded events: the partial batch went
	// out clean and the error waits here for the following call.
	pendErr error
	// fail is the reader's terminal non-EOF error. Once set, every
	// further call repeats it: a stream that failed to decode must
	// never be mistaken for one that ended cleanly, no matter how many
	// times a consumer retries.
	fail error
}

// fatal records a non-EOF error as the reader's sticky terminal state
// and passes err through either way.
func (r *Reader) fatal(err error) error {
	if err != nil && err != io.EOF {
		r.fail = err
	}
	return err
}

// SkipStats reports what a self-healing version-2 reader could not turn
// into events: corrupt or unverifiable regions it skipped.
type SkipStats struct {
	// Bytes is the count of stream bytes consumed without emitting
	// events: corrupt segments (including their checkpoints), scanned
	// garbage, and unverified truncated tails.
	Bytes int64
	// Records is a best-effort estimate of the records lost, from
	// checkpoint record indices where available and from decoded-but-
	// unverified counts otherwise.
	Records int64
	// Segments is the number of discarded segments (resync operations).
	Segments int64
}

// Zero reports whether nothing was skipped — the stream was ingested in
// full.
func (s SkipStats) Zero() bool { return s == SkipStats{} }

func (s SkipStats) String() string {
	return fmt.Sprintf("%d bytes, ~%d records, %d segments skipped", s.Bytes, s.Records, s.Segments)
}

// NewReader creates a Reader, consuming and checking the header. Version
// 1 and version 2 streams are both accepted.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr, err := br.Peek(HeaderSize)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadHeader, hdr[:4])
	}
	if hdr[4] != Version && hdr[4] != Version2 {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, hdr[4])
	}
	rd := &Reader{br: br, version: hdr[4]}
	rd.discard(HeaderSize)
	return rd, nil
}

// Skipped returns the reader's self-healing accounting. It is always
// zero for a version-1 stream (which fails fast instead) and for an
// undamaged version-2 stream; a caller that requires complete ingestion
// must check it after draining the stream.
func (r *Reader) Skipped() SkipStats { return r.skip }

// Next returns the next event, or io.EOF at a clean end of stream. It is
// a one-event NextBatch, so both read the stream through one decoder.
func (r *Reader) Next() (Event, error) {
	var one [1]Event
	if _, err := r.NextBatch(one[:]); err != nil {
		return Event{}, err
	}
	return one[0], nil
}

// discard consumes n buffered bytes.
func (r *Reader) discard(n int) {
	_, _ = r.br.Discard(n) // the n bytes are buffered, so it cannot fail
	r.off += int64(n)
}

// parseItem parses the record or checkpoint at the read position with
// parse, from the bytes already buffered. While parse finds them too
// short for the item (io.ErrUnexpectedEOF) it peeks one more byte and
// parses again. It returns the buffered bytes, valid until the next
// read, with parse's results and consumes nothing. If the stream ends
// inside the item, err is io.ErrUnexpectedEOF and n counts the buffered
// bytes; if it ends before the item, err is io.EOF; a read error other
// than io.EOF is returned as it is.
func parseItem[T any](r *Reader, parse func([]byte) (T, int, error)) (v T, p []byte, n int, err error) {
	p, _ = r.br.Peek(r.br.Buffered())
	for {
		if v, n, err = parse(p); err != io.ErrUnexpectedEOF {
			return v, p, n, err
		}
		if _, rerr := r.br.Peek(len(p) + 1); rerr != nil {
			if rerr != io.EOF || len(p) == 0 {
				err = rerr
			}
			return v, p, len(p), err
		}
		p, _ = r.br.Peek(r.br.Buffered())
	}
}

// record parses the record at the read position (see parseItem). It
// makes the first parse, over the bytes already buffered, itself: that
// one succeeds for every record but the one that straddles the buffer's
// end, and made through parseItem's function value it slows a v1 decode
// by about a fifth.
func (r *Reader) record() (Event, []byte, int, error) {
	p, _ := r.br.Peek(r.br.Buffered())
	if e, n, err := parseRecord(p, r.prev); err != io.ErrUnexpectedEOF {
		return e, p, n, err
	}
	return parseItem(r, func(p []byte) (Event, int, error) { return parseRecord(p, r.prev) })
}

// errBadKind is the error for an invalid kind byte.
type errBadKind byte

func (e errBadKind) Error() string { return fmt.Sprintf("kind byte %d", byte(e)) }

// parseRecord decodes the record at the start of p, its time
// delta-decoded against prev, and returns it with its encoded length: it
// is the inverse of AppendRecord, for both format versions. An error
// means p does not start with a whole record: io.ErrUnexpectedEOF if p
// ends inside one, else the record is malformed and n counts its bytes
// up to the one that showed it.
func parseRecord(p []byte, prev Time) (Event, int, error) {
	if len(p) == 0 {
		return Event{}, 0, io.ErrUnexpectedEOF
	}
	e := Event{Kind: Kind(p[0])}
	if !e.Kind.Valid() {
		return Event{}, 1, errBadKind(p[0])
	}
	f := fields{p: p, n: 1}
	e.Time = prev + Time(f.varint())
	switch e.Kind {
	case KindCreate, KindOpen:
		e.OpenID = OpenID(f.uvarint())
		e.File = FileID(f.uvarint())
		e.User = UserID(f.uvarint())
		e.Mode = Mode(f.uvarint())
		e.Size = f.varint()
	case KindClose:
		e.OpenID = OpenID(f.uvarint())
		e.NewPos = f.varint()
	case KindSeek:
		e.OpenID = OpenID(f.uvarint())
		e.OldPos = f.varint()
		e.NewPos = f.varint()
	case KindUnlink:
		e.File = FileID(f.uvarint())
	case KindTruncate:
		e.File = FileID(f.uvarint())
		e.Size = f.varint()
	case KindExec:
		e.File = FileID(f.uvarint())
		e.User = UserID(f.uvarint())
		e.Size = f.varint()
	}
	if f.err != nil {
		return Event{}, f.n, f.err
	}
	return e, f.n, nil
}

// errOverflow has the text of encoding/binary's error for a varint that
// does not end within ten bytes, so a v1 stream fails as it always has.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// fields reads the varints of one record or checkpoint from p, from
// offset n on. Like stats.Decoder its first failure sticks, but it tells
// an item cut short (io.ErrUnexpectedEOF) from a malformed one.
type fields struct {
	p   []byte
	n   int
	err error
}

func (f *fields) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	x, k := binary.Uvarint(f.p[f.n:])
	switch {
	case k > 0:
		f.n += k
		return x
	case k < 0 || len(f.p)-f.n >= binary.MaxVarintLen64:
		// Ten bytes, as many as binary.ReadUvarint reads before it
		// gives up.
		f.n += binary.MaxVarintLen64
		f.err = errOverflow
	default:
		f.n = len(f.p)
		f.err = io.ErrUnexpectedEOF
	}
	return 0
}

func (f *fields) varint() int64 {
	x := f.uvarint()
	return int64(x>>1) ^ -int64(x&1)
}

// WriteFile encodes events to a file in the binary format.
func WriteFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := NewWriter(f)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
