package adapt

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"bsdtrace/internal/trace"
)

// The page-reference format used by the classic buffer-manager
// benchmarks: one reference per line,
//
//	x, ###
//
// where x is 0 for a read and 1 for a write, and ### is a page number
// (the published Zipf traces use pages 1..50,000). The format carries
// no timestamps and no file structure: it is a bare reference string,
// the least structured trace class.
//
// Each reference becomes one open → seek → close triple on a single
// file at offset page*PageSize, so the cache simulator sees exactly the
// page reference string (page k maps to block k at the matching block
// size). Time is synthesized as one fixed tick per reference, which
// preserves reference order — the only temporal information the format
// has — and keeps rate denominators finite.

// PageRecord is one parsed page reference.
type PageRecord struct {
	Write bool
	Page  int64
}

// String renders the record back into the "x, ###" line format.
func (r PageRecord) String() string {
	x := 0
	if r.Write {
		x = 1
	}
	return fmt.Sprintf("%d, %d", x, r.Page)
}

// ParsePageRefLine parses one "x, ###" line.
func ParsePageRefLine(line string) (PageRecord, error) {
	op, pageStr, ok := strings.Cut(line, ",")
	if !ok {
		return PageRecord{}, fmt.Errorf("adapt: truncated page reference (no comma) in %q", line)
	}
	var rec PageRecord
	switch strings.TrimSpace(op) {
	case "0":
		rec.Write = false
	case "1":
		rec.Write = true
	default:
		return PageRecord{}, fmt.Errorf("adapt: bad op %q (want 0 or 1) in %q", strings.TrimSpace(op), line)
	}
	page, err := strconv.ParseInt(strings.TrimSpace(pageStr), 10, 64)
	if err != nil || page < 0 || page > maxIOOffset>>maxBlockShift {
		return PageRecord{}, fmt.Errorf("adapt: bad page number %q in %q", strings.TrimSpace(pageStr), line)
	}
	rec.Page = page
	return rec, nil
}

// PageRef adapts a page-reference stream to a trace.Source of class
// ClassPage.
type PageRef struct {
	ls *lineScanner
	em emitter

	extent int64 // bytes known to exist in the single backing file
	nextID uint64
}

// pageFile is the single FileID all page references land on.
const pageFile = trace.FileID(1)

// NewPageRef returns a page-reference adapter reading lines from r.
// Pages are unitSize bytes, and references are one millisecond apart.
func NewPageRef(r io.Reader) *PageRef {
	return &PageRef{ls: newLineScanner(r)}
}

// Class reports ClassPage: a bare reference string.
func (p *PageRef) Class() trace.Class { return trace.ClassPage }

// Stats returns the ingest accounting so far.
func (p *PageRef) Stats() Stats { return p.em.stats }

// NextBatch fills buf with the next native events.
func (p *PageRef) NextBatch(buf []trace.Event) (int, error) { return p.em.fill(buf, p.parseLine) }

// parseLine consumes one input line, queueing the events of its record.
func (p *PageRef) parseLine() error {
	line, n, err := p.ls.next()
	if err != nil {
		return err
	}
	p.em.stats.Lines++
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		p.em.stats.Skipped++
		return nil
	}
	rec, perr := ParsePageRefLine(trimmed)
	if perr != nil {
		p.em.stats.Lines--
		return fmt.Errorf("line %d: %w", n, perr)
	}
	p.ingest(rec)
	return nil
}

// ingest re-encodes one page reference into native events.
func (p *PageRef) ingest(rec PageRecord) {
	p.em.stats.Records++
	off := rec.Page * unitSize
	end := off + unitSize
	t := trace.Time(p.em.stats.Records - 1)

	// Same extent rules as the block adapter: reads open with the file
	// grown to cover the page (the data is valid, the fetch is real);
	// writes open with the previous extent, so a first-touch write is a
	// cold whole-page overwrite.
	mode := trace.ReadOnly
	openSize := p.extent
	if rec.Write {
		mode = trace.WriteOnly
		if end > p.extent {
			p.extent = end
		}
	} else {
		if end > openSize {
			openSize = end
		}
		if openSize > p.extent {
			p.extent = openSize
		}
	}

	p.nextID++
	id := trace.OpenID(p.nextID)
	p.em.push(trace.Event{Time: t, Kind: trace.KindOpen, OpenID: id, File: pageFile, User: 1, Mode: mode, Size: openSize})
	if off != 0 {
		p.em.push(trace.Event{Time: t, Kind: trace.KindSeek, OpenID: id, OldPos: 0, NewPos: off})
	}
	p.em.push(trace.Event{Time: t, Kind: trace.KindClose, OpenID: id, NewPos: end})
}
