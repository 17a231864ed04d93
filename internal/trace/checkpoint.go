package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// Version-2 checkpointed framing.
//
// Real tracers lose data: kernel trace buffers overrun, machines reboot
// mid-trace, files rot on tape. The version-1 framing amplifies every
// such wound — delta-encoded times mean one damaged byte desynchronizes
// everything after it — so version 2 inserts a resync checkpoint every
// DefaultCheckpointInterval records (and one at Flush):
//
//	marker     8 bytes: 0xFF "BSDCKPT" (0xFF is never a valid kind byte,
//	           so a checkpoint is unambiguous at a record boundary and
//	           scannable from arbitrary byte positions)
//	segBytes   uvarint, record bytes in the preceding segment
//	segRecords uvarint, records in the preceding segment
//	recordIdx  uvarint, total records written before this checkpoint
//	absTime    varint, absolute time of the last record (the delta base
//	           for the next segment)
//	segCRC     4 bytes LE, CRC32 (IEEE) of the preceding segment's bytes
//	ckCRC      4 bytes LE, CRC32 (IEEE) of the checkpoint payload above
//	           (segBytes through segCRC), so a damaged checkpoint is
//	           never trusted for resync
//
// The reader holds each segment's decoded events until the closing
// checkpoint verifies them (bounded by the interval), so corruption that
// still decodes — a bit flip inside a varint — can never leak an event:
// either the whole segment checks out or none of it is emitted. The
// reader parses records and checkpoints from its buffered bytes and
// folds each record's bytes into the segment CRC in one update. On any
// failure it scans forward for the next marker whose checkpoint
// verifies, restores the absolute time and record index from its
// payload, and resumes; the damage costs at most one segment plus the
// bytes to the next checkpoint. A marker byte that starts no valid
// checkpoint costs one byte, so a checkpoint cut short cannot hide the
// next one inside the bytes it would have claimed.

// DefaultCheckpointInterval is the records-per-checkpoint default for
// NewWriterV2: small enough that one lost segment is a rounding error on
// any real trace, large enough that checkpoints are well under 1% of the
// stream.
const DefaultCheckpointInterval = 4096

// checkpointMarker begins every checkpoint. 0xFF is an invalid kind, so
// a version-2 reader positioned at a record boundary cannot confuse a
// record with a checkpoint.
var checkpointMarker = [8]byte{0xFF, 'B', 'S', 'D', 'C', 'K', 'P', 'T'}

// checkpoint is a decoded checkpoint payload.
type checkpoint struct {
	segBytes   uint64
	segRecords uint64
	recordIdx  uint64
	absTime    Time
	segCRC     uint32
}

// writeCheckpoint seals the current segment. Checkpoint bytes are not
// part of any segment CRC.
func (w *Writer) writeCheckpoint() {
	if w.err != nil {
		return
	}
	payload := binary.AppendUvarint(w.scratch[:0], uint64(w.segBytes))
	payload = binary.AppendUvarint(payload, uint64(w.segRecords))
	payload = binary.AppendUvarint(payload, uint64(w.count))
	payload = binary.AppendVarint(payload, int64(w.prev))
	payload = binary.LittleEndian.AppendUint32(payload, w.segCRC)
	payload = binary.LittleEndian.AppendUint32(payload, crc32.ChecksumIEEE(payload))
	if _, w.err = w.w.Write(checkpointMarker[:]); w.err != nil {
		return
	}
	if _, w.err = w.w.Write(payload); w.err != nil {
		return
	}
	w.segCRC, w.segBytes, w.segRecords = 0, 0, 0
}

// fillSegment decodes records up to the next checkpoint and verifies
// them against it. On corruption — an undecodable record, a checkpoint
// that fails its own CRC, or a segment that fails the checkpoint's CRC —
// it discards the segment, resynchronizes at the next trustworthy
// checkpoint, and tries again; corruption is absorbed into Skipped().
// The stream ends at io.EOF or at a read error, wherever either lands:
// fillSegment returns the read error (nil at io.EOF, with r.eof set),
// and records decoded since the last checkpoint, which no CRC covers,
// count as skipped.
func (r *Reader) fillSegment() error {
	for {
		r.seg, r.segPos = r.seg[:0], 0
		var crc uint32
		segStart, prevStart := r.off, r.prev
	record:
		for {
			e, p, n, err := r.record()
			switch {
			case err == nil:
				crc = crc32.Update(crc, crc32.IEEETable, p[:n])
				r.discard(n)
				r.prev = e.Time
				r.seg = append(r.seg, e)
				continue
			case err == errBadKind(checkpointMarker[0]):
				boundary := r.off
				ck, _, size, cerr := parseItem(r, parseCheckpoint)
				if cerr != nil {
					if !isDamage(cerr) {
						n, err = size, cerr // a read failed inside the checkpoint
					}
					// Otherwise a marker byte at a boundary but no valid
					// checkpoint behind it: scan on from the byte after
					// the marker byte (n is 1).
					break
				}
				r.discard(size)
				if ck.segCRC == crc &&
					ck.segBytes == uint64(boundary-segStart) &&
					ck.segRecords == uint64(len(r.seg)) &&
					ck.recordIdx == uint64(r.index)+uint64(len(r.seg)) &&
					(ck.segRecords == 0 || ck.absTime == r.prev) {
					if len(r.seg) == 0 {
						// An empty verified segment (e.g. a Flush right
						// after an interval checkpoint): keep going.
						break record
					}
					return nil
				}
				// The checkpoint is intact but the segment is not: drop
				// the segment and resync right here.
				r.resync(ck, r.off-segStart)
				break record
			}
			r.discard(n)
			decoded := int64(len(r.seg))
			if isDamage(err) {
				// A malformed record, a bad checkpoint, or a stream that
				// ended inside a record: drop the segment and scan.
				err = r.scan(segStart, prevStart)
				if err == nil {
					break record
				}
			}
			return r.end(segStart, decoded, err)
		}
	}
}

// isDamage reports whether err, from parsing the item at the read
// position, is damage in the stream's bytes: a malformed record or
// checkpoint, or one that io.EOF cut short. Anything else is the end of
// the stream, io.EOF or a failed read.
func isDamage(err error) bool {
	if _, ok := err.(errBadKind); ok {
		return true
	}
	return err == io.ErrUnexpectedEOF || err == errOverflow || err == errBadCheckpoint
}

// end finishes the stream at err, io.EOF or a read error. The segment
// that began at segStart, with decoded records in it, is unverifiable:
// its bytes and records count as skipped rather than emit events no CRC
// ever covered. end returns nil for io.EOF, setting r.eof, and err
// otherwise.
func (r *Reader) end(segStart, decoded int64, err error) error {
	if r.off > segStart {
		r.skip.Bytes += r.off - segStart
		r.skip.Records += decoded
		r.skip.Segments++
	}
	r.seg = r.seg[:0]
	if err == io.EOF {
		r.eof = true
		return nil
	}
	return err
}

// errBadCheckpoint reports bytes that start with a marker byte but are
// not a checkpoint whose payload verifies.
var errBadCheckpoint = errors.New("trace: bad checkpoint")

// parseCheckpoint parses the checkpoint at the start of p and returns it
// with its encoded length. It fails with io.ErrUnexpectedEOF if p ends
// inside a checkpoint, and with errBadCheckpoint if p starts with
// anything else or with a checkpoint whose payload fails its CRC.
func parseCheckpoint(p []byte) (checkpoint, int, error) {
	m := min(len(p), len(checkpointMarker))
	if !bytes.Equal(p[:m], checkpointMarker[:m]) {
		return checkpoint{}, 0, errBadCheckpoint
	}
	f := fields{p: p, n: m}
	var ck checkpoint
	ck.segBytes = f.uvarint()
	ck.segRecords = f.uvarint()
	ck.recordIdx = f.uvarint()
	ck.absTime = Time(f.varint())
	if f.err == nil && len(p)-f.n < 8 {
		f.err = io.ErrUnexpectedEOF
	}
	if f.err != nil {
		return checkpoint{}, 0, f.err
	}
	ck.segCRC = binary.LittleEndian.Uint32(p[f.n:])
	if binary.LittleEndian.Uint32(p[f.n+4:]) != crc32.ChecksumIEEE(p[len(checkpointMarker):f.n+4]) {
		return checkpoint{}, 0, errBadCheckpoint
	}
	return ck, f.n + 8, nil
}

// resync restores the decoding state from ck, whose segment is lost, and
// accounts the skip.
func (r *Reader) resync(ck checkpoint, skipped int64) {
	r.skip.Bytes += skipped
	if d := int64(ck.recordIdx) - r.index; d > 0 {
		r.skip.Records += d
	}
	r.skip.Segments++
	r.index = int64(ck.recordIdx)
	r.prev = ck.absTime
}

// scan discards the current segment and scans forward for the next
// checkpoint whose payload verifies, restoring the decoding state from
// it. After a marker byte that starts no such checkpoint the scan goes
// on from the next byte. scan returns nil once it has resynchronized,
// or the error that ended the stream first: io.EOF or a read error.
// segStart and prevStart are the discarded segment's start offset and
// delta-time base, for the skip accounting and state rollback.
func (r *Reader) scan(segStart int64, prevStart Time) error {
	r.seg = r.seg[:0]
	r.prev = prevStart // the failed segment's records advanced it
	for {
		if _, err := r.br.Peek(1); err != nil {
			return err
		}
		p, _ := r.br.Peek(r.br.Buffered())
		i := bytes.IndexByte(p, checkpointMarker[0])
		if i < 0 {
			r.discard(len(p))
			continue
		}
		r.discard(i)
		markerStart := r.off
		ck, _, n, err := parseItem(r, parseCheckpoint)
		if err != nil {
			if !isDamage(err) {
				r.discard(n)
				return err
			}
			// A false marker inside record data, or a damaged
			// checkpoint: keep scanning.
			r.discard(1)
			continue
		}
		r.discard(n)
		r.resync(ck, markerStart-segStart)
		return nil
	}
}
