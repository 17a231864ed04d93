package stats

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// FuzzDecoder runs reads of every kind, in any order, over any bytes:
// none panics, a read after a failure returns zero, Err stays the first
// failure and wraps ErrCorruptState, and Count never exceeds the bytes
// left after it.
func FuzzDecoder(f *testing.F) {
	blob := AppendUvarint(nil, 3)
	blob = AppendVarint(blob, -7)
	blob = AppendFloat(blob, 2.5)
	blob = AppendBool(blob, true)
	blob = AppendBytes(blob, []byte("abc"))
	f.Add(blob, []byte{5, 1, 2, 3, 4, 0})
	f.Add(blob, []byte{4, 4, 6, 0})
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, []byte{0, 1, 5})
	failure := fmt.Errorf("%w: a caller's validation", ErrCorruptState)
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		d := NewDecoder(data)
		for i, op := range ops {
			before, left := d.Err(), d.Len()
			var zero bool
			switch op % 7 {
			case 0:
				zero = d.Uvarint() == 0
			case 1:
				zero = d.Varint() == 0
			case 2:
				zero = math.Float64bits(d.Float()) == 0
			case 3:
				zero = !d.Bool()
			case 4:
				zero = d.Bytes() == nil
			case 5:
				n := d.Count()
				zero = n == 0
				if n > d.Len() {
					t.Fatalf("read %d: Count %d with %d bytes left", i, n, d.Len())
				}
			case 6:
				d.Fail(failure)
				zero = true
			}
			err := d.Err()
			if before != nil && (err != before || !zero) {
				t.Fatalf("read %d (op %d) after failure %v: error %v, zero result %v", i, op%7, before, err, zero)
			}
			if err != nil && !errors.Is(err, ErrCorruptState) {
				t.Fatalf("read %d: error %v does not wrap ErrCorruptState", i, err)
			}
			if d.Len() > left || (err != nil && d.Len() != 0) {
				t.Fatalf("read %d: %d bytes left, %d before, error %v", i, d.Len(), left, err)
			}
		}
	})
}
