package adapt

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bsdtrace/internal/trace"
)

// The MSR-Cambridge block trace format: one device request per CSV line,
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size[,ResponseTime]
//
// where Timestamp is a Windows filetime (100-nanosecond ticks), Type is
// "Read" or "Write", and Offset/Size are bytes. The adapter follows the
// asterinas replayer's conventions: a request whose offset is not
// block-aligned is rounded up to the next block boundary, sizes are
// rounded up to whole blocks, and blocks first referenced by a read are
// "warmup" blocks — data that predates the trace — which the replayer
// pre-writes before the run and which this adapter can optionally skip.
//
// Each request becomes one native open → seek → close triple on a
// per-(hostname, disk) file, so the xfer scanner reconstructs exactly
// the request's byte range as one sequential run, and the cache
// simulator sees the same block reference string a raw replayer would
// issue. Reads open with the device's known extent (grown to cover the
// request), so every read block holds valid data and costs a fetch;
// writes open with the previous extent, so blocks beyond it are cold
// whole-block overwrites and cost no read-before-write — the warmup
// semantics of the replayer, expressed through the native size rules.

// BlockRecord is one parsed block-trace request.
type BlockRecord struct {
	// Timestamp is the raw foreign timestamp: a Windows filetime when
	// the trace is a real MSR capture, or milliseconds for hand-written
	// fixtures (values below 1e14 are taken as milliseconds).
	Timestamp int64
	Host      string
	Disk      int64
	Write     bool
	// Offset and Size are the request's byte range, as captured (the
	// adapter aligns them; the record keeps the raw values).
	Offset, Size int64
	// Response is the captured response time, or -1 when the line had
	// no seventh column. It is carried for round-tripping only.
	Response int64
}

// String renders the record back into the CSV line format. Parsing the
// result yields the record again (the fuzz round-trip law).
func (r BlockRecord) String() string {
	typ := "Read"
	if r.Write {
		typ = "Write"
	}
	if r.Response < 0 {
		return fmt.Sprintf("%d,%s,%d,%s,%d,%d", r.Timestamp, r.Host, r.Disk, typ, r.Offset, r.Size)
	}
	return fmt.Sprintf("%d,%s,%d,%s,%d,%d,%d", r.Timestamp, r.Host, r.Disk, typ, r.Offset, r.Size, r.Response)
}

// ParseBlockCSVLine parses one CSV line of the block format. The
// seventh (response time) column is optional.
func ParseBlockCSVLine(line string) (BlockRecord, error) {
	fields := strings.Split(line, ",")
	if len(fields) != 6 && len(fields) != 7 {
		return BlockRecord{}, fmt.Errorf("adapt: truncated block record (%d fields, want 6 or 7) in %q", len(fields), line)
	}
	for i := range fields {
		fields[i] = strings.TrimSpace(fields[i])
	}
	rec := BlockRecord{Response: -1}
	ts, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || ts < 0 {
		return BlockRecord{}, fmt.Errorf("adapt: bad timestamp %q in %q", fields[0], line)
	}
	rec.Timestamp = ts
	rec.Host = fields[1]
	if rec.Host == "" || strings.ContainsAny(rec.Host, ", \t") {
		return BlockRecord{}, fmt.Errorf("adapt: bad hostname %q in %q", fields[1], line)
	}
	if rec.Disk, err = strconv.ParseInt(fields[2], 10, 64); err != nil || rec.Disk < 0 {
		return BlockRecord{}, fmt.Errorf("adapt: bad disk number %q in %q", fields[2], line)
	}
	switch strings.ToLower(fields[3]) {
	case "read", "r":
		rec.Write = false
	case "write", "w":
		rec.Write = true
	default:
		return BlockRecord{}, fmt.Errorf("adapt: bad request type %q in %q", fields[3], line)
	}
	if rec.Offset, err = strconv.ParseInt(fields[4], 10, 64); err != nil || rec.Offset < 0 || rec.Offset > maxIOOffset {
		return BlockRecord{}, fmt.Errorf("adapt: bad offset %q in %q", fields[4], line)
	}
	if rec.Size, err = strconv.ParseInt(fields[5], 10, 64); err != nil || rec.Size < 0 || rec.Size > maxIORequest {
		return BlockRecord{}, fmt.Errorf("adapt: bad size %q in %q", fields[5], line)
	}
	if len(fields) == 7 {
		if rec.Response, err = strconv.ParseInt(fields[6], 10, 64); err != nil || rec.Response < 0 {
			return BlockRecord{}, fmt.Errorf("adapt: bad response time %q in %q", fields[6], line)
		}
	}
	return rec, nil
}

// filetimeThreshold separates Windows filetimes from hand-written
// millisecond timestamps: 1e14 filetime ticks is year 1917, and 1e14 ms
// is year 5138, so no real capture falls between the interpretations.
const filetimeThreshold = 1e14

// BlockCSVConfig configures the block adapter. The zero value is the
// MSR default: warmup reads kept. Blocks are unitSize bytes.
type BlockCSVConfig struct {
	// SkipWarmup drops read requests whose blocks were never written
	// earlier in the trace, as a replayer without a warmup phase must
	// (the data does not exist on its disk). The default keeps them:
	// the adapter opens reads with a grown extent, so warmup data reads
	// as valid — the equivalent of the replayer's pre-write phase.
	SkipWarmup bool
}

// BlockCSV adapts a block-trace CSV stream to a trace.Source of class
// ClassBlock.
type BlockCSV struct {
	cfg BlockCSVConfig
	ls  *lineScanner
	em  emitter
	tl  timeline

	files   map[string]trace.FileID // (host, disk) -> file
	extent  map[trace.FileID]int64  // bytes known to exist per file
	touched map[blockKey]bool       // blocks referenced at all (warmup dedup)
	written map[blockKey]bool       // blocks holding valid data
	nextID  uint64                  // next open id (and file id seed)
}

type blockKey struct {
	file  trace.FileID
	block int64
}

// NewBlockCSV returns a block-trace adapter reading CSV lines from r.
func NewBlockCSV(r io.Reader, cfg BlockCSVConfig) *BlockCSV {
	return &BlockCSV{
		cfg:     cfg,
		ls:      newLineScanner(r),
		files:   make(map[string]trace.FileID),
		extent:  make(map[trace.FileID]int64),
		touched: make(map[blockKey]bool),
		written: make(map[blockKey]bool),
	}
}

// Class reports ClassBlock: the stream carries no logical structure.
func (b *BlockCSV) Class() trace.Class { return trace.ClassBlock }

// Stats returns the ingest accounting so far.
func (b *BlockCSV) Stats() Stats { return b.em.stats }

// NextBatch fills buf with the next native events.
func (b *BlockCSV) NextBatch(buf []trace.Event) (int, error) { return b.em.fill(buf, b.parseLine) }

// parseLine consumes one input line, queueing the events of its record.
func (b *BlockCSV) parseLine() error {
	line, n, err := b.ls.next()
	if err != nil {
		return err
	}
	b.em.stats.Lines++
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		b.em.stats.Skipped++
		return nil
	}
	if n == 1 && looksLikeHeader(trimmed) {
		b.em.stats.Skipped++
		return nil
	}
	rec, perr := ParseBlockCSVLine(trimmed)
	if perr != nil {
		b.em.stats.Lines--
		return fmt.Errorf("line %d: %w", n, perr)
	}
	b.ingest(rec)
	return nil
}

// looksLikeHeader reports a first line whose timestamp column is not
// numeric — the optional column-name header some CSV exports carry.
func looksLikeHeader(line string) bool {
	first, _, _ := strings.Cut(line, ",")
	_, err := strconv.ParseInt(strings.TrimSpace(first), 10, 64)
	return err != nil
}

// ingest re-encodes one accepted record into native events.
func (b *BlockCSV) ingest(rec BlockRecord) {
	b.em.stats.Records++
	const bs = unitSize

	// Block alignment, as the asterinas replayer does: a misaligned
	// offset rounds up to the next block boundary; the size rounds up
	// to whole blocks. A request that rounds to nothing is skipped.
	off, size := rec.Offset, rec.Size
	if off%bs != 0 {
		off = (off/bs + 1) * bs
	}
	if size%bs != 0 {
		size = (size/bs + 1) * bs
	}
	if size == 0 {
		b.em.stats.Skipped++
		b.em.stats.Records--
		return
	}
	end := off + size

	file := b.fileFor(rec.Host, rec.Disk)

	// Warmup tracking: blocks first referenced by a read predate the
	// trace. Writes populate their blocks either way; a read populates
	// its blocks only when warmup reads are kept (the replayer's
	// pre-write phase made that data real). Under SkipWarmup a block
	// never written stays cold, so re-reads of it are dropped too.
	warm := false
	for blk := off / bs; blk < end/bs; blk++ {
		k := blockKey{file, blk}
		if !rec.Write && !b.written[k] {
			warm = true
			if !b.touched[k] {
				b.em.stats.WarmupBlocks++
			}
		}
		b.touched[k] = true
		if rec.Write || !b.cfg.SkipWarmup {
			b.written[k] = true
		}
	}
	if warm && b.cfg.SkipWarmup {
		b.em.stats.SkippedReads++
		b.em.stats.Records--
		return
	}

	// Foreign timestamps: Windows filetime ticks or literal ms.
	raw := rec.Timestamp
	var t trace.Time
	if raw >= filetimeThreshold {
		t = trace.Time(raw / 10_000)
	} else {
		t = trace.Time(raw)
	}
	t, clamped := b.tl.clamp(t)
	if clamped {
		b.em.stats.ClampedTimes++
	}

	// The native encoding: one open/seek/close per request. Reads open
	// at the grown extent so the range holds valid data; writes open at
	// the previous extent so fresh blocks are cold overwrites.
	mode := trace.ReadOnly
	openSize := b.extent[file]
	if rec.Write {
		mode = trace.WriteOnly
		if end > b.extent[file] {
			b.extent[file] = end
		}
	} else {
		if end > openSize {
			openSize = end
		}
		if openSize > b.extent[file] {
			b.extent[file] = openSize
		}
	}

	b.nextID++
	id := trace.OpenID(b.nextID)
	user := trace.UserID(uint32(file)) // one "user" per device: hosts stay distinguishable
	b.em.push(trace.Event{Time: t, Kind: trace.KindOpen, OpenID: id, File: file, User: user, Mode: mode, Size: openSize})
	if off != 0 {
		b.em.push(trace.Event{Time: t, Kind: trace.KindSeek, OpenID: id, OldPos: 0, NewPos: off})
	}
	b.em.push(trace.Event{Time: t, Kind: trace.KindClose, OpenID: id, NewPos: end})
}

// fileFor maps a (hostname, disk) pair to a stable FileID in
// first-appearance order.
func (b *BlockCSV) fileFor(host string, disk int64) trace.FileID {
	key := fmt.Sprintf("%s/%d", host, disk)
	if id, ok := b.files[key]; ok {
		return id
	}
	id := trace.FileID(len(b.files) + 1)
	b.files[key] = id
	return id
}
