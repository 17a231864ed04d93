package trace

import (
	"bufio"
	"io"
)

// Resumable encoder state, for the fstraced checkpoint file: a daemon
// restart continues its v2 stream from the checkpointed record index,
// so the resumed stream decodes exactly like one that never stopped.
// Nothing else in this package is checkpointed: a resumed daemon
// rebuilds its validator by checking the regenerated prefix again.

// NewResumedWriterV2 creates a version-2 Writer that continues a logical
// stream from record index count with delta-time base prev: the header
// is followed by a checkpoint carrying that position, so a reader of the
// resumed stream decodes absolute times correctly and reports exactly
// count pre-resume records as skipped. Record encoding after the resume
// point is byte-identical to what an uninterrupted writer would have
// produced.
func NewResumedWriterV2(w io.Writer, interval int, count int64, prev Time) *Writer {
	if interval <= 0 {
		interval = DefaultCheckpointInterval
	}
	return &Writer{
		w:          bufio.NewWriterSize(w, 1<<16),
		version:    Version2,
		ckInterval: interval,
		count:      count,
		prev:       prev,
		resumed:    true,
	}
}
