package trace

import (
	"fmt"
	"io"
	"sync"
)

// DefaultBatchSize is the event-batch capacity used by pooled batches
// and the internal prefetch buffers of batching sources. At 64 bytes an
// event, a batch is a few tens of kilobytes — big enough to amortize
// per-event call overhead into nothing, small enough to stay
// cache-friendly and keep fan-out memory bounded.
const DefaultBatchSize = 256

// ReadBatch is src.NextBatch(buf). The repository calls NextBatch
// directly; ReadBatch stays because the separate benchmark module calls
// it.
func ReadBatch(src Source, buf []Event) (int, error) {
	return src.NextBatch(buf)
}

// batchPool recycles event batches across stages and goroutines so the
// steady-state batched pipeline allocates nothing per batch.
var batchPool = sync.Pool{
	New: func() any {
		s := make([]Event, DefaultBatchSize)
		return &s
	},
}

// GetBatch returns a pooled event slice of length DefaultBatchSize.
// Return it with PutBatch when done.
func GetBatch() []Event {
	return *batchPool.Get().(*[]Event)
}

// PutBatch returns a batch obtained from GetBatch to the pool.
//
// Guard rails: callers routinely reslice a pooled batch (buf[:0] to
// refill it, buf[:n] after a short read), so PutBatch restores the full
// DefaultBatchSize length before pooling — GetBatch always hands out
// full-length batches. A slice whose *capacity* is not exactly
// DefaultBatchSize cannot be a whole pooled batch (it was either
// allocated elsewhere, grown by append, or carved out with a three-index
// or offset reslice), and pooling it would poison the pool with a
// short or aliased buffer; such slices are dropped for the garbage
// collector instead. Only pass slices that came from GetBatch: a
// foreign slice that happens to have capacity DefaultBatchSize but
// aliases a larger caller-owned array is indistinguishable here and
// would share that memory with the next GetBatch caller.
func PutBatch(buf []Event) {
	if cap(buf) != DefaultBatchSize {
		return
	}
	buf = buf[:DefaultBatchSize]
	batchPool.Put(&buf)
}

// NextBatch decodes up to len(buf) records in one call. A decode failure
// after a partial batch is held and returned by the following call, so no
// decoded event is lost and the batch contract holds. Truncation
// mid-record is reported as io.ErrUnexpectedEOF, and decode errors carry
// the failing record's index and byte offset.
func (r *Reader) NextBatch(buf []Event) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if r.fail != nil {
		return 0, r.fail
	}
	if r.pendErr != nil {
		err := r.pendErr
		r.pendErr = nil
		return 0, r.fatal(err)
	}
	if r.version == Version2 {
		n, err := r.nextBatchV2(buf)
		return n, r.fatal(err)
	}
	n := 0
	for n < len(buf) {
		e, _, size, err := r.record()
		if err == io.EOF {
			return r.finishBatch(n, io.EOF)
		}
		if err != nil {
			return r.finishBatch(n, fmt.Errorf("trace: record %d at offset %d: corrupt stream: %w", r.index, r.off, err))
		}
		r.discard(size)
		r.prev = e.Time
		r.index++
		buf[n] = e
		n++
	}
	return n, nil
}

// finishBatch shapes a mid-batch stream end into the batch contract:
// a partial batch goes out clean and the error waits for the next call.
func (r *Reader) finishBatch(n int, err error) (int, error) {
	if n > 0 {
		r.pendErr = err
		return n, nil
	}
	return 0, r.fatal(err)
}

// nextBatchV2 serves batches straight out of the current verified
// segment: one memcpy per call in the common case.
func (r *Reader) nextBatchV2(buf []Event) (int, error) {
	for r.segPos >= len(r.seg) {
		if r.eof {
			return 0, io.EOF
		}
		if err := r.fillSegment(); err != nil {
			return 0, err
		}
	}
	n := copy(buf, r.seg[r.segPos:])
	r.segPos += n
	r.index += int64(n)
	return n, nil
}
