package trace

import "io"

// LenientSource is the degraded-mode ingestion wrapper the commands'
// -lenient flags install: a RecoverSource repair pass plus absorption of
// mid-stream decode errors. A version-1 stream has no checkpoints to
// resync at, so when its reader fails mid-stream the wrapper ends the
// stream at the last good record instead of failing the run, keeping the
// error for the damage report. Version-2 readers self-heal below this
// layer and surface only read errors, which end the stream here too.
type LenientSource struct {
	rec *RecoverSource
	in  truncatingSource
}

// truncatingSource ends its source at the first decode error, keeping
// the error for Truncated.
type truncatingSource struct {
	src   Source
	trunc error
}

func (t *truncatingSource) NextBatch(buf []Event) (int, error) {
	if t.trunc != nil {
		return 0, io.EOF
	}
	n, err := t.src.NextBatch(buf)
	if n == 0 && err != nil && err != io.EOF {
		t.trunc = err
		return 0, io.EOF
	}
	return n, err
}

// NewLenientSource wraps src for degraded-mode ingestion.
func NewLenientSource(src Source) *LenientSource {
	s := &LenientSource{in: truncatingSource{src: src}}
	s.rec = NewRecoverSource(&s.in)
	return s
}

// NextBatch repairs a batch of events in one call.
func (s *LenientSource) NextBatch(buf []Event) (int, error) { return s.rec.NextBatch(buf) }

// Stats returns the repair budget so far.
func (s *LenientSource) Stats() RepairStats { return s.rec.Stats() }

// Truncated returns the decode error that ended the stream early, or
// nil if the stream ran to a clean EOF.
func (s *LenientSource) Truncated() error { return s.in.trunc }
