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
// byte-for-byte the same.
//
// The Append functions write a blob one field at a time, and a Decoder
// reads it back in the same order. Every checkpoint decoder reads its
// blob through one Decoder: a read past the end or a malformed value
// latches a failure, later reads return zero, and the caller checks Err
// once at the end. So corrupt input never panics and needs no error
// check per field.

// ErrCorruptState reports a state blob that does not decode.
var ErrCorruptState = errors.New("stats: corrupt accumulator state")

// AppendFloat appends the exact bit pattern of f.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendUvarint appends x in unsigned varint encoding.
func AppendUvarint(buf []byte, x uint64) []byte {
	return binary.AppendUvarint(buf, x)
}

// AppendVarint appends x in signed varint encoding.
func AppendVarint(buf []byte, x int64) []byte {
	return binary.AppendVarint(buf, x)
}

// AppendBool appends b as one byte, 1 or 0.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends b with its length in front, as AppendUvarint
// writes it.
func AppendBytes(buf, b []byte) []byte {
	return append(AppendUvarint(buf, uint64(len(b))), b...)
}

// Decoder reads a blob written by the Append functions. Its first
// failure sticks: after it, every read returns zero and Err returns
// that failure. A loop bound or table size read from the blob should
// come from Count, which caps it by the bytes left.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a Decoder reading buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the decoder's first failure, or nil. A failed read wraps
// ErrCorruptState.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's failure unless an earlier one
// stands, so a caller's own validation latches like a failed read.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err, d.buf = err, nil
	}
}

// Len returns the number of bytes not yet read: 0 after a failure.
func (d *Decoder) Len() int { return len(d.buf) }

// take returns the next n bytes, or nil once fewer are left.
func (d *Decoder) take(n uint64) []byte {
	if n > uint64(len(d.buf)) {
		d.Fail(ErrCorruptState)
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Uvarint reads a value appended by AppendUvarint.
func (d *Decoder) Uvarint() uint64 {
	x, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail(ErrCorruptState)
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

// Varint reads a value appended by AppendVarint.
func (d *Decoder) Varint() int64 {
	x, n := binary.Varint(d.buf)
	if n <= 0 {
		d.Fail(ErrCorruptState)
		return 0
	}
	d.buf = d.buf[n:]
	return x
}

// Float reads a value appended by AppendFloat.
func (d *Decoder) Float() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Bool reads a value appended by AppendBool.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// Bytes reads a byte string appended by AppendBytes. The result aliases
// the blob.
func (d *Decoder) Bytes() []byte { return d.take(d.Uvarint()) }

// Count reads an entry count appended by AppendUvarint and fails on one
// larger than the bytes left: every entry takes at least a byte, so a
// corrupt count cannot make the caller size a table or run a loop past
// its input.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Fail(fmt.Errorf("%w: %d entries in %d bytes", ErrCorruptState, n, len(d.buf)))
		return 0
	}
	return int(n)
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
// AppendState, read from d.
func (w *Welford) DecodeState(d *Decoder) {
	w.n = d.Varint()
	w.mean = d.Float()
	w.m2 = d.Float()
	w.min = d.Float()
	w.max = d.Float()
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
	return AppendBool(buf, h.anySeen)
}

// DecodeState replaces the histogram's weights with state appended by
// AppendState, read from d. The receiver must have the same bucket
// structure as the histogram that produced the state.
func (h *Histogram) DecodeState(d *Decoder) {
	if n := d.Uvarint(); n != uint64(len(h.weights)) {
		d.Fail(fmt.Errorf("%w: %d weights for a %d-bucket histogram", ErrCorruptState, n, len(h.weights)))
	}
	for i := range h.weights {
		h.weights[i] = d.Float()
	}
	h.total = d.Float()
	h.maxSeen = d.Float()
	h.anySeen = d.Bool()
}
