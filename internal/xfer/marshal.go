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
		buf = appendBool(buf, sum.Created)
		buf = stats.AppendVarint(buf, int64(sum.OpenTime))
		buf = stats.AppendVarint(buf, int64(sum.CloseTime))
		buf = stats.AppendVarint(buf, sum.SizeAtOpen)
		buf = stats.AppendVarint(buf, sum.SizeAtClose)
		buf = stats.AppendVarint(buf, sum.Bytes)
		buf = stats.AppendVarint(buf, int64(sum.Runs))
		buf = stats.AppendVarint(buf, int64(sum.Seeks))
		buf = appendBool(buf, sum.WholeFile)
		buf = appendBool(buf, sum.Sequential)
		buf = stats.AppendVarint(buf, st.pos)
		buf = stats.AppendVarint(buf, int64(st.lastEvent))
		buf = appendBool(buf, st.seenBytes)
		buf = appendBool(buf, st.broken)
	}

	buf = stats.AppendUvarint(buf, uint64(s.sizes.Len()))
	s.sizes.Each(func(f trace.FileID, sz *int64) {
		buf = stats.AppendUvarint(buf, uint64(f))
		buf = stats.AppendVarint(buf, *sz)
	})

	return stats.AppendUvarint(buf, uint64(len(s.errs)))
}

// DecodeState replaces the scanner's state with one appended by
// AppendState, returning the remaining bytes. Callbacks are untouched.
func (s *Scanner) DecodeState(buf []byte) ([]byte, error) {
	v, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if v != scannerStateVersion {
		return nil, fmt.Errorf("xfer: scanner state version %d, want %d", v, scannerStateVersion)
	}

	n, buf, err := stats.DecodeCount(buf)
	if err != nil {
		return nil, err
	}
	var opens openTable
	for i := 0; i < n; i++ {
		var st openState
		sum := &st.summary
		var u int64
		var x uint64
		if x, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		sum.OpenID = trace.OpenID(x)
		if x, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		sum.File = trace.FileID(x)
		if x, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		sum.User = trace.UserID(x)
		if x, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		sum.Mode = trace.Mode(x)
		if sum.Created, buf, err = decodeBool(buf); err != nil {
			return nil, err
		}
		if u, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		sum.OpenTime = trace.Time(u)
		if u, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		sum.CloseTime = trace.Time(u)
		if sum.SizeAtOpen, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if sum.SizeAtClose, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if sum.Bytes, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if u, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		sum.Runs = int(u)
		if u, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		sum.Seeks = int(u)
		if sum.WholeFile, buf, err = decodeBool(buf); err != nil {
			return nil, err
		}
		if sum.Sequential, buf, err = decodeBool(buf); err != nil {
			return nil, err
		}
		if st.pos, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		if u, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		st.lastEvent = trace.Time(u)
		if st.seenBytes, buf, err = decodeBool(buf); err != nil {
			return nil, err
		}
		if st.broken, buf, err = decodeBool(buf); err != nil {
			return nil, err
		}
		p, _ := opens.put(sum.OpenID)
		*p = st
	}

	n, buf, err = stats.DecodeCount(buf)
	if err != nil {
		return nil, err
	}
	var sizes trace.Table[trace.FileID, int64]
	for i := 0; i < n; i++ {
		var f uint64
		var sz int64
		if f, buf, err = stats.DecodeUvarint(buf); err != nil {
			return nil, err
		}
		if sz, buf, err = stats.DecodeVarint(buf); err != nil {
			return nil, err
		}
		*sizes.Put(trace.FileID(f)) = sz
	}

	nerrs, buf, err := stats.DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if nerrs > 20 {
		return nil, stats.ErrCorruptState
	}
	s.opens = opens
	s.sizes = sizes
	s.errs = s.errs[:0]
	for i := uint64(0); i < nerrs; i++ {
		s.errs = append(s.errs, fmt.Errorf("xfer: error before checkpoint restore (detail not preserved)"))
	}
	return buf, nil
}
