package xfer

import "bsdtrace/internal/trace"

// KnownSize exposes the scanner's file-size rule to the external tests.
func (s *Scanner) KnownSize(f trace.FileID) int64 { return s.knownSize(f) }
