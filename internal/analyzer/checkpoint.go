package analyzer

import (
	"errors"
	"fmt"
	"slices"

	"bsdtrace/internal/stats"
	"bsdtrace/internal/trace"
)

// Stream checkpoint serialization.
//
// MarshalBinary captures the complete incremental state of an unfinished
// Stream — histograms, activity accumulators, the user/open/live/share
// tables, the transfer scanner, and the byte count and delta-time base
// that back EncodedSize — and RestoreStream rebuilds a Stream from it.
// The restore invariant, pinned by TestStreamCheckpointRoundTrip, is
// byte-exactness: feeding events e(n+1)..e(N) into a Stream restored at
// position n and finishing produces an Analysis (and a rendered report)
// identical to feeding e(1)..e(N) into one Stream without interruption.
// Floating-point state round-trips through exact bit patterns, and every
// table is serialized in ID order, so the blob itself is a deterministic
// function of the stream's state.
//
// The format is a versioned byte string. RestoreStream reads all of it
// through one stats.Decoder, which the histograms, the activity
// accumulators and the transfer scanner read from in turn: the first
// short read, malformed value or failed validation sticks, and the
// blob's one error check returns it. So RestoreStream never panics on
// corrupt input (fuzzed by FuzzRestoreStream); it returns an error.

const streamStateVersion = 2

// ErrFinished reports an attempt to checkpoint a Stream after Finish:
// finishing consumes the incremental state (censored lifetimes, flushed
// intervals), so a finished stream is not resumable.
var ErrFinished = errors.New("analyzer: cannot checkpoint a finished Stream")

func (a *activityAccum) appendState(buf []byte) []byte {
	buf = stats.AppendVarint(buf, int64(a.width))
	buf = stats.AppendVarint(buf, a.current)
	buf = stats.AppendBool(buf, a.started)
	buf = stats.AppendVarint(buf, int64(a.row.MaxActiveUsers))
	buf = a.row.ActiveUsers.AppendState(buf)
	buf = a.row.PerUserThroughput.AppendState(buf)
	buf = stats.AppendUvarint(buf, uint64(len(a.active)))
	slices.SortFunc(a.active, byID)
	for _, u := range a.active {
		buf = stats.AppendUvarint(buf, uint64(u.id))
		buf = stats.AppendVarint(buf, u.slots[a.slot].bytes)
	}
	return buf
}

// decodeState restores the accumulator from d, taking its active users'
// entries from the stream's user table through user.
func (a *activityAccum) decodeState(d *stats.Decoder, user func(trace.UserID) *user) {
	if w := trace.Time(d.Varint()); w != a.width {
		d.Fail(fmt.Errorf("analyzer: checkpoint interval %v, stream has %v", w, a.width))
	}
	a.current = d.Varint()
	a.started = d.Bool()
	a.row.MaxActiveUsers = int(d.Varint())
	a.row.ActiveUsers.DecodeState(d)
	a.row.PerUserThroughput.DecodeState(d)
	for range d.Count() {
		u := user(trace.UserID(d.Uvarint()))
		a.mark(u).bytes = d.Varint()
	}
}

// MarshalBinary serializes the stream's complete incremental state. It
// must be called from the feeding goroutine or with the same external
// synchronization as Feed. It fails on a finished stream and on one
// carrying a tape, whose state it does not hold.
func (s *Stream) MarshalBinary() ([]byte, error) {
	if s.finished {
		return nil, ErrFinished
	}
	if s.tb != nil {
		return nil, errors.New("analyzer: a stream carrying a tape cannot be checkpointed")
	}
	buf := stats.AppendUvarint(nil, streamStateVersion)

	// Partial Analysis scalars (CDFs and finish-time fields are derived).
	an := s.an
	buf = stats.AppendVarint(buf, int64(an.Overall.Duration))
	for _, c := range an.Overall.Counts.ByKind {
		buf = stats.AppendVarint(buf, c)
	}
	buf = stats.AppendVarint(buf, an.Overall.Counts.Total)
	buf = stats.AppendVarint(buf, an.Overall.BytesTransferred)
	buf = stats.AppendVarint(buf, an.Overall.BytesRead)
	buf = stats.AppendVarint(buf, an.Overall.BytesWritten)
	for c := ModeClass(0); c < numClasses; c++ {
		buf = stats.AppendVarint(buf, an.Sequentiality.Accesses[c])
		buf = stats.AppendVarint(buf, an.Sequentiality.WholeFile[c])
		buf = stats.AppendVarint(buf, an.Sequentiality.Sequential[c])
	}
	buf = stats.AppendVarint(buf, an.Sequentiality.BytesTotal)
	buf = stats.AppendVarint(buf, an.Sequentiality.BytesWholeFile)
	buf = stats.AppendVarint(buf, an.Sequentiality.BytesSequential)
	buf = stats.AppendVarint(buf, an.Lifetimes.NewFiles)
	buf = stats.AppendVarint(buf, an.Lifetimes.DeadFiles)

	// Histograms, in the fixed field order of the struct.
	for _, h := range s.histograms() {
		buf = h.AppendState(buf)
	}

	// Activity accumulators (their widths pin the Options used).
	buf = s.longAcc.appendState(buf)
	buf = s.shortAcc.appendState(buf)

	// User / open / live-file / share tables, in ID order.
	buf = stats.AppendUvarint(buf, uint64(s.users.Len()))
	s.users.Each(func(id trace.UserID, _ **user) {
		buf = stats.AppendUvarint(buf, uint64(id))
	})

	opens := s.sc.Opens()
	buf = stats.AppendUvarint(buf, uint64(len(opens)))
	for _, o := range opens {
		buf = stats.AppendUvarint(buf, uint64(o.OpenID))
		buf = stats.AppendUvarint(buf, uint64(o.User))
	}

	var lives, shared int
	s.files.Each(func(_ trace.FileID, f *file) {
		if f.live {
			lives++
		}
		if f.users > 0 {
			shared++
		}
	})
	buf = stats.AppendUvarint(buf, uint64(lives))
	s.files.Each(func(id trace.FileID, f *file) {
		if f.live {
			buf = stats.AppendUvarint(buf, uint64(id))
			buf = stats.AppendVarint(buf, int64(f.birth))
			buf = stats.AppendVarint(buf, f.bytes)
		}
	})
	buf = stats.AppendUvarint(buf, uint64(shared))
	s.files.Each(func(id trace.FileID, f *file) {
		if f.users > 0 {
			buf = stats.AppendUvarint(buf, uint64(id))
			buf = stats.AppendUvarint(buf, uint64(f.first))
			buf = stats.AppendVarint(buf, int64(f.users))
			buf = stats.AppendVarint(buf, f.accesses)
		}
	})

	// Transfer scanner.
	buf = s.sc.AppendState(buf)

	// Encoder position: byte count (header included) and delta base, so
	// EncodedSize stays continuous across a restore. The final true is
	// the header's "begun" flag, which the count always includes.
	buf = stats.AppendVarint(buf, s.size)
	buf = stats.AppendVarint(buf, int64(s.prev))
	return stats.AppendBool(buf, true), nil
}

// histograms returns the stream's histograms in serialization order.
func (s *Stream) histograms() []*stats.Histogram {
	return []*stats.Histogram{
		s.runLenRuns, s.runLenBytes, s.sizeFiles, s.sizeBytes,
		s.openTimes, s.lifeFiles, s.lifeBytes, s.gaps,
	}
}

// RestoreStream rebuilds a Stream from a MarshalBinary blob. The
// returned stream continues exactly where the original stopped: Feed the
// remaining events and Finish, and every result is byte-identical to an
// uninterrupted run. opts must equal the original stream's Options (the
// zero Options works for streams created with it); a mismatch is
// detected and reported.
func RestoreStream(data []byte, opts Options) (*Stream, error) {
	d := stats.NewDecoder(data)
	if ver := d.Uvarint(); ver != streamStateVersion {
		d.Fail(fmt.Errorf("analyzer: stream state version %d, want %d", ver, streamStateVersion))
		return nil, d.Err()
	}
	s := NewStream(opts)
	an := s.an

	an.Overall.Duration = trace.Time(d.Varint())
	for i := range an.Overall.Counts.ByKind {
		an.Overall.Counts.ByKind[i] = d.Varint()
	}
	an.Overall.Counts.Total = d.Varint()
	an.Overall.BytesTransferred = d.Varint()
	an.Overall.BytesRead = d.Varint()
	an.Overall.BytesWritten = d.Varint()
	for c := ModeClass(0); c < numClasses; c++ {
		an.Sequentiality.Accesses[c] = d.Varint()
		an.Sequentiality.WholeFile[c] = d.Varint()
		an.Sequentiality.Sequential[c] = d.Varint()
	}
	an.Sequentiality.BytesTotal = d.Varint()
	an.Sequentiality.BytesWholeFile = d.Varint()
	an.Sequentiality.BytesSequential = d.Varint()
	an.Lifetimes.NewFiles = d.Varint()
	an.Lifetimes.DeadFiles = d.Varint()

	for _, h := range s.histograms() {
		h.DecodeState(d)
	}
	s.longAcc.decodeState(d, s.user)
	s.shortAcc.decodeState(d, s.user)

	for range d.Count() {
		s.user(trace.UserID(d.Uvarint()))
	}
	// The open table: the scanner's state below holds each open's user.
	for range 2 * d.Count() {
		d.Uvarint()
	}
	for range d.Count() {
		f := s.files.Put(trace.FileID(d.Uvarint()))
		f.live, f.birth, f.bytes = true, trace.Time(d.Varint()), d.Varint()
	}
	for range d.Count() {
		f := s.files.Put(trace.FileID(d.Uvarint()))
		f.first = trace.UserID(d.Uvarint())
		users := d.Varint()
		if users != 1 && users != 2 {
			d.Fail(stats.ErrCorruptState)
		}
		f.users = uint8(users)
		f.accesses = d.Varint()
	}

	s.sc.DecodeState(d)

	s.size = d.Varint()
	s.prev = trace.Time(d.Varint())
	if !d.Bool() { // the header's "begun" flag
		d.Fail(stats.ErrCorruptState)
	}
	if d.Len() != 0 {
		d.Fail(fmt.Errorf("analyzer: %d trailing bytes after stream state", d.Len()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// Events returns the number of events fed so far (restored across a
// checkpoint): the stream's position in the trace.
func (s *Stream) Events() int64 { return s.an.Overall.Counts.Total }

// LastTime returns the time of the last event fed: the delta base a
// resumed encoder of the same stream must continue from.
func (s *Stream) LastTime() trace.Time { return s.an.Overall.Duration }
