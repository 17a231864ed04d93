// Package xfer reconstructs data transfers from a logical-level trace.
//
// The tracer records no read or write events. Because file I/O in 4.2 BSD
// is implicitly sequential, the access position recorded at open (always
// zero), before and after every seek, and at close completely identifies
// the ranges of bytes that each open transferred: between two successive
// position-recording events the process moved sequentially from the first
// recorded position to the second's starting position. Each such maximal
// sequential range is a "run".
//
// Following the paper (§3.1), every run is billed at the time of the trace
// event that ends it — the next seek or close for that open file. The times
// are therefore loose upper bounds, which the paper shows is acceptable
// because most files are open well under a second.
//
// Both the Section-5 reference-pattern analyzer and the Section-6 cache
// simulator consume this package, so the two halves of the study agree on
// what was transferred.
package xfer

import (
	"fmt"

	"bsdtrace/internal/trace"
)

// Transfer is one reconstructed sequential run of bytes.
type Transfer struct {
	// Time is the bill time: the time of the seek or close event that
	// ended the run.
	Time trace.Time
	// Start is the time of the position-recording event that began the
	// run (the open, or the previous seek). The transfer happened
	// somewhere in [Start, Time]; the paper bills at Time, and the
	// billing-sensitivity ablation re-bills at Start.
	Start trace.Time
	// File is the file the bytes belong to.
	File trace.FileID
	// User is the account of the open that performed the transfer.
	User trace.UserID
	// OpenID identifies the open this run belongs to.
	OpenID trace.OpenID
	// Offset and Length delimit the byte range [Offset, Offset+Length).
	Offset, Length int64
	// Write reports the transfer direction. For read-only and write-only
	// opens the direction is the open mode. For read-write opens the
	// direction is inferred: a run that extends the file past its
	// previously known size must be (at least partly) a write, and is
	// classified as one; other read-write runs are classified as reads.
	Write bool
	// Mode is the access mode of the owning open.
	Mode trace.Mode
}

// End returns Offset+Length.
func (t Transfer) End() int64 { return t.Offset + t.Length }

// OpenSummary describes one completed open-close session.
type OpenSummary struct {
	OpenID trace.OpenID
	File   trace.FileID
	User   trace.UserID
	Mode   trace.Mode
	// Created reports whether the open was a create (new data).
	Created bool
	// OpenTime and CloseTime delimit the session.
	OpenTime, CloseTime trace.Time
	// SizeAtOpen is the file size recorded by the open event; zero for
	// creates. SizeAtClose is the size implied at close time (grown by
	// any writes that extended the file).
	SizeAtOpen, SizeAtClose int64
	// Bytes is the total bytes transferred; Runs is the number of
	// non-empty sequential runs.
	Bytes int64
	Runs  int
	// Seeks is the number of seek events during the open (including
	// zero-displacement seeks).
	Seeks int
	// WholeFile reports a single run covering the entire file from byte
	// zero: the file was read or written sequentially from beginning to
	// end (paper Table V).
	WholeFile bool
	// Sequential reports an access whose bytes form a single run: a
	// whole-file transfer, or one initial reposition followed by a
	// sequential transfer with no further repositioning (paper Table V).
	Sequential bool
}

// Scanner consumes trace events in time order and emits reconstructed
// transfers, per-open summaries and event gaps through callbacks. Any
// callback may be nil.
type Scanner struct {
	// OnTransfer is called for every non-empty run, in bill-time order,
	// before a write run grows the file's known size: the tape builder
	// reads the size as it was before the transfer.
	OnTransfer func(Transfer)
	// OnOpenEnd is called at each close with the session summary.
	OnOpenEnd func(OpenSummary)
	// OnEventGap is called with the time since the previous event of the
	// same open, for every close and seek (the §3.1 measurement of how
	// tight the no-read-write time bounds are).
	OnEventGap func(gap trace.Time)

	opens openTable
	sizes trace.Table[trace.FileID, int64]
	errs  []error
}

type openState struct {
	summary   OpenSummary
	pos       int64 // position at the last position-recording event
	lastEvent trace.Time
	seenBytes bool // any non-empty run recorded yet
	broken    bool // a seek happened after bytes moved, or >1 run
}

// NewScanner creates a Scanner.
func NewScanner() *Scanner { return &Scanner{} }

func (s *Scanner) errorf(format string, args ...any) {
	if len(s.errs) < 20 {
		s.errs = append(s.errs, fmt.Errorf(format, args...))
	}
}

// Errs returns malformed-stream complaints accumulated during scanning.
// A trace that passes trace.Validate produces none.
func (s *Scanner) Errs() []error { return s.errs }

// knownSize returns the current size estimate for a file. Sizes are
// learned from open events (which record size at open), create and
// truncate events, and writes that extend files.
func (s *Scanner) knownSize(f trace.FileID) int64 {
	if sz := s.sizes.Get(f); sz != nil {
		return *sz
	}
	return 0
}

// emitRun records the run [st.pos, endPos) for the open, billed at now
// and started at the open's previous position-recording event.
func (s *Scanner) emitRun(st *openState, endPos int64, now trace.Time) {
	length := endPos - st.pos
	if length <= 0 {
		return
	}
	sum := &st.summary
	isWrite := false
	switch sum.Mode {
	case trace.WriteOnly:
		isWrite = true
	case trace.ReadWrite:
		// Inferred: extending the file means writing.
		isWrite = endPos > s.knownSize(sum.File)
	}
	t := Transfer{
		Time:   now,
		Start:  st.lastEvent,
		File:   sum.File,
		User:   sum.User,
		OpenID: sum.OpenID,
		Offset: st.pos,
		Length: length,
		Write:  isWrite,
		Mode:   sum.Mode,
	}
	sum.Bytes += length
	sum.Runs++
	if st.seenBytes {
		st.broken = true // second run: not sequential
	}
	st.seenBytes = true
	if s.OnTransfer != nil {
		s.OnTransfer(t)
	}
	if isWrite && endPos > s.knownSize(sum.File) {
		*s.sizes.Put(sum.File) = endPos
	}
}

// Feed processes one event. Events must arrive in time order.
func (s *Scanner) Feed(e trace.Event) {
	switch e.Kind {
	case trace.KindCreate, trace.KindOpen:
		st, dup := s.opens.put(e.OpenID)
		if dup {
			s.errorf("t=%v: open id %d reused", e.Time, e.OpenID)
			return
		}
		if e.Kind == trace.KindCreate {
			// New data: anything previously in the file is overwritten.
			*s.sizes.Put(e.File) = 0
		} else {
			*s.sizes.Put(e.File) = e.Size
		}
		sum := &st.summary
		sum.File, sum.User, sum.Mode = e.File, e.User, e.Mode
		sum.Created = e.Kind == trace.KindCreate
		sum.OpenTime, sum.SizeAtOpen = e.Time, e.Size
		st.lastEvent = e.Time

	case trace.KindSeek:
		st := s.opens.get(e.OpenID)
		if st == nil {
			s.errorf("t=%v: seek on unknown open id %d", e.Time, e.OpenID)
			return
		}
		if s.OnEventGap != nil {
			s.OnEventGap(e.Time - st.lastEvent)
		}
		s.emitRun(st, e.OldPos, e.Time)
		st.lastEvent = e.Time
		// A trailing seek with no bytes after it does not break
		// sequentiality; only a second non-empty run does, and emitRun
		// marks that.
		st.summary.Seeks++
		st.pos = e.NewPos

	case trace.KindClose:
		i := s.opens.find(e.OpenID)
		if i < 0 {
			s.errorf("t=%v: close of unknown open id %d", e.Time, e.OpenID)
			return
		}
		st := &s.opens.slots[i].st
		if s.OnEventGap != nil {
			s.OnEventGap(e.Time - st.lastEvent)
		}
		s.emitRun(st, e.NewPos, e.Time)
		sum := &st.summary
		sum.CloseTime = e.Time
		sum.SizeAtClose = s.knownSize(sum.File)
		sum.Sequential = !st.broken
		sum.WholeFile = sum.Sequential && sum.Runs == 1 && sum.Seeks == 0 &&
			sum.Bytes == sum.SizeAtClose && sum.SizeAtClose > 0
		if s.OnOpenEnd != nil {
			s.OnOpenEnd(*sum)
		}
		s.opens.removeAt(i)

	case trace.KindUnlink:
		s.sizes.Delete(e.File)

	case trace.KindTruncate:
		*s.sizes.Put(e.File) = e.Size

	case trace.KindExec:
		// Execs carry no position information; the cache simulator's
		// paging mode synthesizes reads from them directly.

	default:
		s.errorf("t=%v: unknown event kind %d", e.Time, uint8(e.Kind))
	}
}

// OpenCount returns the number of opens still outstanding.
func (s *Scanner) OpenCount() int { return s.opens.n }

// OpenUser returns the user of the outstanding open id, and false if no
// such open is outstanding.
func (s *Scanner) OpenUser(id trace.OpenID) (trace.UserID, bool) {
	if st := s.opens.get(id); st != nil {
		return st.summary.User, true
	}
	return 0, false
}

// Opens returns the summaries so far of the outstanding opens, in
// OpenID order.
func (s *Scanner) Opens() []OpenSummary {
	var out []OpenSummary
	for _, st := range s.opens.sorted() {
		out = append(out, st.summary)
	}
	return out
}

// Finish discards outstanding opens (a live trace ends with some files
// open) and returns how many were discarded. Their partial transfers up to
// the last recorded position were already emitted; bytes between the last
// position event and the never-seen close are unknowable, exactly as they
// were for the paper's analyzers.
func (s *Scanner) Finish() int {
	n := s.opens.n
	s.opens.reset()
	return n
}
