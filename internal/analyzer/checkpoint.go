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
// The format is a versioned byte string read with bounds-checked
// decoders: RestoreStream never panics on corrupt input (fuzzed by
// FuzzRestoreStream), it returns an error.

const streamStateVersion = 2

// ErrFinished reports an attempt to checkpoint a Stream after Finish:
// finishing consumes the incremental state (censored lifetimes, flushed
// intervals), so a finished stream is not resumable.
var ErrFinished = errors.New("analyzer: cannot checkpoint a finished Stream")

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func decodeBool(buf []byte) (bool, []byte, error) {
	if len(buf) < 1 {
		return false, nil, stats.ErrCorruptState
	}
	return buf[0] != 0, buf[1:], nil
}

func (a *activityAccum) appendState(buf []byte) []byte {
	buf = stats.AppendVarint(buf, int64(a.width))
	buf = stats.AppendVarint(buf, a.current)
	buf = appendBool(buf, a.started)
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

// decodeState restores the accumulator, taking its active users' entries
// from the stream's user table through user.
func (a *activityAccum) decodeState(buf []byte, user func(trace.UserID) *user) ([]byte, error) {
	w, buf, err := stats.DecodeVarint(buf)
	if err != nil {
		return nil, err
	}
	if trace.Time(w) != a.width {
		return nil, fmt.Errorf("analyzer: checkpoint interval %v, stream has %v", trace.Time(w), a.width)
	}
	if a.current, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if a.started, buf, err = decodeBool(buf); err != nil {
		return nil, err
	}
	var x int64
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	a.row.MaxActiveUsers = int(x)
	if buf, err = a.row.ActiveUsers.DecodeState(buf); err != nil {
		return nil, err
	}
	if buf, err = a.row.PerUserThroughput.DecodeState(buf); err != nil {
		return nil, err
	}
	n, buf, err := stats.DecodeCount(buf)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var u uint64
		var b int64
		if u, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if b, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		a.mark(user(trace.UserID(u))).bytes = b
	}
	return buf, nil
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
	return appendBool(buf, true), nil
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
	ver, buf, err := stats.DecodeUvarint(data)
	if err != nil {
		return nil, err
	}
	if ver != streamStateVersion {
		return nil, fmt.Errorf("analyzer: stream state version %d, want %d", ver, streamStateVersion)
	}
	s := NewStream(opts)
	an := s.an

	var x int64
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	an.Overall.Duration = trace.Time(x)
	for i := range an.Overall.Counts.ByKind {
		if an.Overall.Counts.ByKind[i], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
	}
	if an.Overall.Counts.Total, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Overall.BytesTransferred, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Overall.BytesRead, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Overall.BytesWritten, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	for c := ModeClass(0); c < numClasses; c++ {
		if an.Sequentiality.Accesses[c], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if an.Sequentiality.WholeFile[c], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if an.Sequentiality.Sequential[c], buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
	}
	if an.Sequentiality.BytesTotal, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Sequentiality.BytesWholeFile, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Sequentiality.BytesSequential, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Lifetimes.NewFiles, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if an.Lifetimes.DeadFiles, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}

	for _, h := range s.histograms() {
		if buf, err = h.DecodeState(buf); err != nil {
			return nil, err
		}
	}

	if buf, err = s.longAcc.decodeState(buf, s.user); err != nil {
		return nil, err
	}
	if buf, err = s.shortAcc.decodeState(buf, s.user); err != nil {
		return nil, err
	}

	n, buf, err := stats.DecodeCount(buf)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var u uint64
		if u, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		s.user(trace.UserID(u))
	}

	// The open table: the scanner's state below holds each open's user.
	if n, buf, err = stats.DecodeCount(buf); err != nil {
		return nil, err
	}
	for i := 0; i < 2*n; i++ {
		if _, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
	}

	if n, buf, err = stats.DecodeCount(buf); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var id uint64
		var birth, bytes int64
		if id, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if birth, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if bytes, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		f := s.files.Put(trace.FileID(id))
		f.live, f.birth, f.bytes = true, trace.Time(birth), bytes
	}

	if n, buf, err = stats.DecodeCount(buf); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var id, first uint64
		var users, accesses int64
		if id, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if first, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if users, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if accesses, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if users != 1 && users != 2 {
			return nil, stats.ErrCorruptState
		}
		f := s.files.Put(trace.FileID(id))
		f.first, f.users, f.accesses = trace.UserID(first), uint8(users), accesses
	}

	if buf, err = s.sc.DecodeState(buf); err != nil {
		return nil, err
	}

	if s.size, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	if x, buf, err = stats.DecodeVarint(buf); err != nil {
		return nil, err
	}
	s.prev = trace.Time(x)
	begun, buf, err := decodeBool(buf)
	if err != nil {
		return nil, err
	}
	if !begun {
		return nil, stats.ErrCorruptState
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("analyzer: %d trailing bytes after stream state", len(buf))
	}
	return s, nil
}

// Events returns the number of events fed so far (restored across a
// checkpoint): the stream's position in the trace.
func (s *Stream) Events() int64 { return s.an.Overall.Counts.Total }

// LastTime returns the time of the last event fed: the delta base a
// resumed encoder of the same stream must continue from.
func (s *Stream) LastTime() trace.Time { return s.an.Overall.Duration }
