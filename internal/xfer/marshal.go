package xfer

import (
	"fmt"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

// Scanner state serialization, for the online-analysis checkpoint: a
// restored Scanner fed the remainder of a trace produces exactly the
// callbacks the original would have, so transfer reconstruction survives
// a daemon restart without rescanning the prefix. Tables are serialized
// in ID order, making the encoding a deterministic function of the
// scanner's state. Accumulated error strings are not preserved — a
// checkpointed stream has already validated clean — only their count is,
// so the 20-error cap keeps working across a restore.

const scannerStateVersion = 1

// AppendState appends the scanner's complete working state.
func (s *Scanner) AppendState(buf []byte) []byte {
	buf = stats.AppendUvarint(buf, scannerStateVersion)

	buf = stats.AppendUvarint(buf, uint64(s.opens.n))
	for _, st := range s.opens.sorted() {
		sum := &st.summary
		buf = stats.AppendUvarint(buf, uint64(sum.OpenID))
		buf = stats.AppendUvarint(buf, uint64(sum.File))
		buf = stats.AppendUvarint(buf, uint64(sum.User))
		buf = stats.AppendUvarint(buf, uint64(sum.Mode))
		buf = stats.AppendBool(buf, sum.Created)
		buf = stats.AppendVarint(buf, int64(sum.OpenTime))
		buf = stats.AppendVarint(buf, int64(sum.CloseTime))
		buf = stats.AppendVarint(buf, sum.SizeAtOpen)
		buf = stats.AppendVarint(buf, sum.SizeAtClose)
		buf = stats.AppendVarint(buf, sum.Bytes)
		buf = stats.AppendVarint(buf, int64(sum.Runs))
		buf = stats.AppendVarint(buf, int64(sum.Seeks))
		buf = stats.AppendBool(buf, sum.WholeFile)
		buf = stats.AppendBool(buf, sum.Sequential)
		buf = stats.AppendVarint(buf, st.pos)
		buf = stats.AppendVarint(buf, int64(st.lastEvent))
		buf = stats.AppendBool(buf, st.seenBytes)
		buf = stats.AppendBool(buf, st.broken)
	}

	buf = stats.AppendUvarint(buf, uint64(s.sizes.Len()))
	s.sizes.Each(func(f trace.FileID, sz *int64) {
		buf = stats.AppendUvarint(buf, uint64(f))
		buf = stats.AppendVarint(buf, *sz)
	})

	return stats.AppendUvarint(buf, uint64(len(s.errs)))
}

// DecodeState replaces the scanner's state with one appended by
// AppendState, read from d. Callbacks are untouched. After a failure,
// recorded in d, the scanner's state is unspecified.
func (s *Scanner) DecodeState(d *stats.Decoder) {
	if v := d.Uvarint(); v != scannerStateVersion {
		d.Fail(fmt.Errorf("xfer: scanner state version %d, want %d", v, scannerStateVersion))
		return
	}
	s.opens, s.sizes = openTable{}, trace.Table[trace.FileID, int64]{}
	for range d.Count() {
		st, _ := s.opens.put(trace.OpenID(d.Uvarint()))
		sum := &st.summary
		sum.File = trace.FileID(d.Uvarint())
		sum.User = trace.UserID(d.Uvarint())
		sum.Mode = trace.Mode(d.Uvarint())
		sum.Created = d.Bool()
		sum.OpenTime = trace.Time(d.Varint())
		sum.CloseTime = trace.Time(d.Varint())
		sum.SizeAtOpen = d.Varint()
		sum.SizeAtClose = d.Varint()
		sum.Bytes = d.Varint()
		sum.Runs = int(d.Varint())
		sum.Seeks = int(d.Varint())
		sum.WholeFile = d.Bool()
		sum.Sequential = d.Bool()
		st.pos = d.Varint()
		st.lastEvent = trace.Time(d.Varint())
		st.seenBytes = d.Bool()
		st.broken = d.Bool()
	}
	for range d.Count() {
		f := trace.FileID(d.Uvarint())
		*s.sizes.Put(f) = d.Varint()
	}
	nerrs := d.Uvarint()
	if nerrs > 20 {
		d.Fail(stats.ErrCorruptState)
		return
	}
	s.errs = s.errs[:0]
	for range nerrs {
		s.errs = append(s.errs, fmt.Errorf("xfer: error before checkpoint restore (detail not preserved)"))
	}
}
