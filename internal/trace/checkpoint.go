package trace

import (
	"encoding/binary"
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
// either the whole segment checks out or none of it is emitted. On any
// failure the reader scans forward for the next marker, restores the
// absolute time and record index from its payload, and resumes; the
// damage costs at most one segment plus the bytes to the next checkpoint.

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
// checkpoint, and tries again. Only genuine I/O errors are returned;
// corruption is absorbed into Skipped().
func (r *Reader) fillSegment() error {
	for {
		r.seg = r.seg[:0]
		r.segPos = 0
		r.r.crc = 0
		segStart := r.r.off
		prevStart := r.prev
	record:
		for {
			boundary := r.r.off
			crcBefore := r.r.crc
			b, err := r.r.ReadByte()
			if err == io.EOF {
				if r.r.off > segStart {
					// Truncated tail: records decoded (or bytes consumed)
					// after the last checkpoint are unverifiable; drop them
					// rather than emit events no CRC ever covered.
					r.skip.Bytes += r.r.off - segStart
					r.skip.Records += int64(len(r.seg))
					r.skip.Segments++
					r.seg = r.seg[:0]
				}
				r.eof = true
				return nil
			}
			if err != nil {
				return err
			}
			if b == checkpointMarker[0] {
				r.r.crc = crcBefore // the marker is not segment data
				segCRC := r.r.crc
				ck, ok := r.readCheckpoint(1)
				if ok &&
					ck.segCRC == segCRC &&
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
				if ok {
					// The checkpoint is intact but the segment is not:
					// drop the segment and resync right here.
					r.skip.Bytes += r.r.off - segStart
					if d := int64(ck.recordIdx) - r.index; d > 0 {
						r.skip.Records += d
					}
					r.skip.Segments++
					r.index = int64(ck.recordIdx)
					r.prev = ck.absTime
					break record
				}
				// Marker byte at a boundary but no valid checkpoint
				// behind it: corruption. Scan forward.
				if !r.scanToCheckpoint(segStart, prevStart) {
					return nil // EOF while scanning
				}
				break record
			}
			e, err := r.decodeBody(b)
			if err != nil {
				if !r.scanToCheckpoint(segStart, prevStart) {
					return nil
				}
				break record
			}
			r.seg = append(r.seg, e)
		}
	}
}

// readCheckpoint reads a checkpoint whose first matched bytes of the
// marker are already consumed, returning ok only if the remaining marker
// bytes match and the payload verifies against its own CRC. The segment
// CRC state is unaffected (callers snapshot it before the marker).
func (r *Reader) readCheckpoint(consumed int) (checkpoint, bool) {
	crcWas, crcOnWas := r.r.crc, r.r.crcOn
	r.r.crcOn = false
	defer func() { r.r.crc, r.r.crcOn = crcWas, crcOnWas }()

	for i := consumed; i < len(checkpointMarker); i++ {
		b, err := r.r.ReadByte()
		if err != nil || b != checkpointMarker[i] {
			return checkpoint{}, false
		}
	}
	var payload []byte
	readUvarint := func() (uint64, bool) {
		var x uint64
		var shift uint
		for {
			b, err := r.r.ReadByte()
			if err != nil || len(payload) > 64 {
				return 0, false
			}
			payload = append(payload, b)
			if b < 0x80 {
				if shift >= 64 || (shift == 63 && b > 1) {
					return 0, false
				}
				return x | uint64(b)<<shift, true
			}
			x |= uint64(b&0x7f) << shift
			shift += 7
			if shift >= 64 {
				return 0, false
			}
		}
	}
	var ck checkpoint
	var ok bool
	if ck.segBytes, ok = readUvarint(); !ok {
		return checkpoint{}, false
	}
	if ck.segRecords, ok = readUvarint(); !ok {
		return checkpoint{}, false
	}
	if ck.recordIdx, ok = readUvarint(); !ok {
		return checkpoint{}, false
	}
	t, ok := readUvarint()
	if !ok {
		return checkpoint{}, false
	}
	// Undo the zig-zag encoding of PutVarint by hand so the raw payload
	// bytes stay available for the payload CRC.
	ck.absTime = Time(int64(t>>1) ^ -int64(t&1))
	var crcb [8]byte
	for i := range crcb {
		b, err := r.r.ReadByte()
		if err != nil {
			return checkpoint{}, false
		}
		crcb[i] = b
	}
	ck.segCRC = binary.LittleEndian.Uint32(crcb[:4])
	payload = append(payload, crcb[:4]...)
	if binary.LittleEndian.Uint32(crcb[4:]) != crc32.ChecksumIEEE(payload) {
		return checkpoint{}, false
	}
	return ck, true
}

// scanToCheckpoint discards the current segment and scans byte by byte
// for the next checkpoint whose payload verifies, restoring the decoding
// state from it. It reports false at EOF (the reader is finished).
// segStart and prevStart are the discarded segment's start offset and
// delta-time base, for the skip accounting and state rollback.
func (r *Reader) scanToCheckpoint(segStart int64, prevStart Time) bool {
	decoded := int64(len(r.seg))
	r.seg = r.seg[:0]
	r.prev = prevStart // decodeBody may have advanced it into garbage
	match := 0
	for {
		b, err := r.r.ReadByte()
		if err != nil {
			r.skip.Bytes += r.r.off - segStart
			r.skip.Records += decoded
			r.skip.Segments++
			r.eof = true
			return false
		}
		if b != checkpointMarker[match] {
			match = 0
			if b == checkpointMarker[0] {
				match = 1
			}
			continue
		}
		match++
		if match < len(checkpointMarker) {
			continue
		}
		markerStart := r.r.off - int64(len(checkpointMarker))
		ck, ok := r.readCheckpoint(len(checkpointMarker))
		if !ok {
			// A false marker inside record data, or a damaged
			// checkpoint: keep scanning.
			match = 0
			continue
		}
		r.skip.Bytes += markerStart - segStart
		if d := int64(ck.recordIdx) - r.index; d > 0 {
			r.skip.Records += d
		}
		r.skip.Segments++
		r.index = int64(ck.recordIdx)
		r.prev = ck.absTime
		return true
	}
}
