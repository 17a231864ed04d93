package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary state serialization for the accumulator types, used by the
// online-analysis checkpoint (analyzer.Stream.MarshalBinary and the
// fstraced daemon state file). Floating-point state round-trips through
// math.Float64bits, so a restored accumulator is bit-identical to the
// original: every downstream mean, standard deviation, and CDF renders
// byte-for-byte the same. Decoders validate lengths and never panic on
// corrupt input; they return an error instead.

// ErrCorruptState reports a state blob that does not decode.
var ErrCorruptState = errors.New("stats: corrupt accumulator state")

// AppendFloat appends the exact bit pattern of f.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// DecodeFloat decodes a float appended by AppendFloat.
func DecodeFloat(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, ErrCorruptState
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
}

// AppendUvarint appends x in unsigned varint encoding.
func AppendUvarint(buf []byte, x uint64) []byte {
	return binary.AppendUvarint(buf, x)
}

// DecodeUvarint decodes a value appended by AppendUvarint.
func DecodeUvarint(buf []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, ErrCorruptState
	}
	return x, buf[n:], nil
}

// DecodeCount decodes an entry count appended by AppendUvarint and
// rejects one larger than the bytes left: every entry takes at least a
// byte, so a corrupt count cannot make the caller size a table past its
// input.
func DecodeCount(buf []byte) (int, []byte, error) {
	n, buf, err := DecodeUvarint(buf)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(buf)) {
		return 0, nil, fmt.Errorf("%w: %d entries in %d bytes", ErrCorruptState, n, len(buf))
	}
	return int(n), buf, nil
}

// AppendVarint appends x in signed varint encoding.
func AppendVarint(buf []byte, x int64) []byte {
	return binary.AppendVarint(buf, x)
}

// DecodeVarint decodes a value appended by AppendVarint.
func DecodeVarint(buf []byte) (int64, []byte, error) {
	x, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, ErrCorruptState
	}
	return x, buf[n:], nil
}

// AppendState appends the accumulator's complete state.
func (w *Welford) AppendState(buf []byte) []byte {
	buf = AppendVarint(buf, w.n)
	buf = AppendFloat(buf, w.mean)
	buf = AppendFloat(buf, w.m2)
	buf = AppendFloat(buf, w.min)
	return AppendFloat(buf, w.max)
}

// DecodeState replaces the accumulator's state with one appended by
// AppendState and returns the remaining bytes.
func (w *Welford) DecodeState(buf []byte) ([]byte, error) {
	var err error
	if w.n, buf, err = DecodeVarint(buf); err != nil {
		return nil, err
	}
	if w.mean, buf, err = DecodeFloat(buf); err != nil {
		return nil, err
	}
	if w.m2, buf, err = DecodeFloat(buf); err != nil {
		return nil, err
	}
	if w.min, buf, err = DecodeFloat(buf); err != nil {
		return nil, err
	}
	if w.max, buf, err = DecodeFloat(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendState appends the histogram's mutable state: bucket weights,
// total, and the observed maximum. Bucket bounds are construction-time
// constants and are not serialized; DecodeState requires a histogram
// constructed with the same bounds, and the weight count pins that.
func (h *Histogram) AppendState(buf []byte) []byte {
	buf = AppendUvarint(buf, uint64(len(h.weights)))
	for _, w := range h.weights {
		buf = AppendFloat(buf, w)
	}
	buf = AppendFloat(buf, h.total)
	buf = AppendFloat(buf, h.maxSeen)
	if h.anySeen {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// DecodeState replaces the histogram's weights with state appended by
// AppendState. The receiver must have the same bucket structure as the
// histogram that produced the state.
func (h *Histogram) DecodeState(buf []byte) ([]byte, error) {
	n, buf, err := DecodeUvarint(buf)
	if err != nil {
		return nil, err
	}
	if int(n) != len(h.weights) {
		return nil, fmt.Errorf("%w: %d weights for a %d-bucket histogram", ErrCorruptState, n, len(h.weights))
	}
	for i := range h.weights {
		if h.weights[i], buf, err = DecodeFloat(buf); err != nil {
			return nil, err
		}
	}
	if h.total, buf, err = DecodeFloat(buf); err != nil {
		return nil, err
	}
	if h.maxSeen, buf, err = DecodeFloat(buf); err != nil {
		return nil, err
	}
	if len(buf) < 1 {
		return nil, ErrCorruptState
	}
	h.anySeen = buf[0] != 0
	return buf[1:], nil
}
