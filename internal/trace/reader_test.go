package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
	"time"
)

// TestReaderReturnsSegmentBeforeStall: a v2 reader hands out a segment
// as soon as its checkpoint verifies, without waiting for a byte past
// it. fstraced sends each segment with its checkpoint as one HTTP chunk,
// so a reader that read ahead would hold the segment until the next
// chunk came, and forever if the writer stalls.
func TestReaderReturnsSegmentBeforeStall(t *testing.T) {
	events := randomTrace(43, 16)
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() {
		// A failed write shows as missing events below.
		w := NewWriterV2(pw, len(events))
		for _, e := range events {
			w.Write(e)
		}
		w.Flush() // the header, one segment and its checkpoint; then nothing
	}()
	stall := time.AfterFunc(10*time.Second, func() {
		pw.CloseWithError(errors.New("the writer stalled"))
	})
	r, err := NewReader(pr)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Event, 2*len(events))
	n, err := r.NextBatch(buf)
	if !stall.Stop() {
		t.Fatalf("the reader waited for a byte past the checkpoint (returned %d events, %v)", n, err)
	}
	if err != nil || n != len(events) {
		t.Fatalf("first batch: %d events, %v; want the segment's %d", n, err, len(events))
	}
	for i, e := range buf[:n] {
		if e != events[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, e, events[i])
		}
	}
	pw.Close()
	if n, err := r.NextBatch(buf); n != 0 || err != io.EOF {
		t.Fatalf("after the writer closed: %d events, %v; want io.EOF", n, err)
	}
}

// TestCorruptFixtureOutcomes pins what the reader makes of each
// committed fixture: how many events it returns, what it reports
// skipped, and the error that ends a damaged v1 stream.
func TestCorruptFixtureOutcomes(t *testing.T) {
	for _, c := range []struct {
		name   string
		events int
		skip   SkipStats
		err    string
	}{
		{"clean-v2.bin", 1000, SkipStats{}, ""},
		{"corrupt-v1-bitflip.bin", 1000, SkipStats{}, ""},
		{"corrupt-v1-truncated.bin", 660, SkipStats{},
			"trace: record 660 at offset 11097: corrupt stream: unexpected EOF"},
		{"corrupt-v2-garbage-fill.bin", 936, SkipStats{Bytes: 1085, Records: 64, Segments: 1}, ""},
		{"corrupt-v2-segment-bitflip.bin", 936, SkipStats{Bytes: 1100, Records: 64, Segments: 1}, ""},
		{"corrupt-v2-truncated.bin", 704, SkipStats{Bytes: 691, Records: 41, Segments: 1}, ""},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", c.name))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := ReadSource(r)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if len(got) != c.events || r.Skipped() != c.skip || msg != c.err {
			t.Errorf("%s: %d events, skipped %v, error %q; want %d, %v, %q",
				c.name, len(got), r.Skipped(), msg, c.events, c.skip, c.err)
		}
	}
}

// TestReaderAllocsPerStream: draining a v2 stream allocates the same
// number of objects however long the stream is. The reader decodes the
// bytes its buffer already holds, with nothing allocated per record or
// per byte.
func TestReaderAllocsPerStream(t *testing.T) {
	buf := make([]Event, DefaultBatchSize)
	drain := func(data []byte) float64 {
		return testing.AllocsPerRun(3, func() {
			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := r.NextBatch(buf); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	short := drain(encodeV2(t, randomTrace(47, 1000), 64))
	long := drain(encodeV2(t, randomTrace(47, 10000), 64))
	if short != long {
		t.Errorf("draining 1,000 events allocates %v objects, 10,000 events %v; want the same", short, long)
	}
}

// TestV2CutCheckpointResync: a checkpoint cut short, so that the eight
// bytes read as its CRCs run into the next checkpoint's marker, fails to
// verify, and the scan for the next checkpoint starts at the byte after
// the failed one's first. It finds the next checkpoint and loses only
// the two records before it; a scan resuming after the bytes the failed
// checkpoint consumed would miss that marker and lose a third.
func TestV2CutCheckpointResync(t *testing.T) {
	events := []Event{
		{Time: 10, Kind: KindCreate, OpenID: 1, File: 7, User: 3, Mode: WriteOnly},
		{Time: 20, Kind: KindUnlink, File: 9}, // 3 bytes, under the 8 CRC bytes
		{Time: 30, Kind: KindClose, OpenID: 1, NewPos: 8192},
		{Time: 40, Kind: KindUnlink, File: 7},
	}
	// Each record is followed by its checkpoint. Cut the first
	// checkpoint's 8 CRC bytes, so the second record and the first 5
	// bytes of the second checkpoint's marker stand where they were.
	data := encodeV2(t, events, 1)
	first := bytes.Index(data, checkpointMarker[:])
	second := first + 1 + bytes.Index(data[first+1:], checkpointMarker[:])
	end := second - len(AppendRecord(nil, events[0].Time, events[1])) // the first checkpoint's end
	cut := append(append([]byte(nil), data[:end-8]...), data[end:]...)

	r, err := NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSource(r)
	if err != nil {
		t.Fatal(err)
	}
	want := SkipStats{Bytes: int64(second - 8 - HeaderSize), Records: 2, Segments: 1}
	if len(got) != 2 || got[0] != events[2] || got[1] != events[3] || r.Skipped() != want {
		t.Fatalf("got %+v, skipped %v; want the last two events, %v", got, r.Skipped(), want)
	}
}

// drainBatches reads r to its end in batches of n events and returns the
// events and the error that ended the stream (io.EOF at a clean end).
func drainBatches(r *Reader, n int) ([]Event, error) {
	var out []Event
	buf := make([]Event, n)
	for {
		k, err := r.NextBatch(buf)
		out = append(out, buf[:k]...)
		if err != nil {
			return out, err
		}
	}
}

// TestReadErrorEndsStream: a read error other than io.EOF ends a v2
// stream with that error wherever it lands, between items or inside a
// record or checkpoint. A 300-event stream is cut at every 7th byte
// and the read after the cut fails. At checkpoint intervals 1, 3 and 64
// and in 1-event and 256-event batches, the reader must end in that
// error, with the events and the skipped segment of the same stream cut
// there by io.EOF.
func TestReadErrorEndsStream(t *testing.T) {
	events := randomTrace(59, 300)
	injected := errors.New("injected read error")
	for _, interval := range []int{1, 3, 64} {
		data := encodeV2(t, events, interval)
		for cut := HeaderSize; cut <= len(data); cut += 7 {
			open := func(rd io.Reader) *Reader {
				r, err := NewReader(rd)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			clean := open(bytes.NewReader(data[:cut]))
			want, err := drainBatches(clean, DefaultBatchSize)
			if err != io.EOF {
				t.Fatalf("interval %d cut %d: the cut stream ended in %v", interval, cut, err)
			}
			for _, batch := range []int{1, DefaultBatchSize} {
				r := open(io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(injected)))
				got, err := drainBatches(r, batch)
				if err != injected || len(got) != len(want) || r.Skipped() != clean.Skipped() {
					t.Fatalf("interval %d cut %d batch %d: %d events, skipped %v, ended in %v; want %d, %v, the injected error",
						interval, cut, batch, len(got), r.Skipped(), err, len(want), clean.Skipped())
				}
				if _, err := r.NextBatch(make([]Event, batch)); err != injected {
					t.Fatalf("interval %d cut %d batch %d: the error did not stick: %v", interval, cut, batch, err)
				}
			}
		}
	}
}
