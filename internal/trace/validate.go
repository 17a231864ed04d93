package trace

import "fmt"

// Validator checks a stream of events for the structural invariants that
// the analyses depend on. It is used in tests to prove that the workload
// generator emits well-formed traces, and by the command-line tools to
// reject corrupt input early instead of producing silently wrong tables.
//
// Invariants checked:
//
//   - event times are non-decreasing;
//   - every open id is introduced by exactly one open or create;
//   - close and seek refer to an open id that is currently open;
//   - a seek's previous position matches the position implied by the
//     event history (position starts at 0 on open — reading and writing
//     are implicitly sequential in 4.2 BSD — and can only grow between
//     position-recording events);
//   - positions and sizes are non-negative, and modes are valid.
type Validator struct {
	prev     Time
	started  bool
	open     map[OpenID]*openState
	errs     []error
	maxErrs  int
	counts   Counts
	firstBad *Event
	current  Event
}

type openState struct {
	file FileID
	mode Mode
	pos  int64 // position as of the last position-recording event
}

// NewValidator creates a Validator that accumulates up to maxErrs errors
// (0 means a reasonable default).
func NewValidator(maxErrs int) *Validator {
	if maxErrs <= 0 {
		maxErrs = 20
	}
	return &Validator{open: make(map[OpenID]*openState), maxErrs: maxErrs}
}

func (v *Validator) errorf(format string, args ...any) {
	if v.firstBad == nil {
		bad := v.current
		v.firstBad = &bad
	}
	if len(v.errs) < v.maxErrs {
		v.errs = append(v.errs, fmt.Errorf(format, args...))
	}
}

// Check validates one event in stream order.
func (v *Validator) Check(e Event) {
	v.current = e
	v.counts.Add(e)
	if !e.Kind.Valid() {
		v.errorf("t=%v: invalid kind %d", e.Time, uint8(e.Kind))
		return
	}
	if v.started && e.Time < v.prev {
		v.errorf("t=%v: time went backwards (previous %v)", e.Time, v.prev)
	}
	v.prev = e.Time
	v.started = true

	switch e.Kind {
	case KindCreate, KindOpen:
		if e.Size < 0 {
			v.errorf("t=%v: %v with negative size %d", e.Time, e.Kind, e.Size)
		}
		if e.Kind == KindCreate && e.Size != 0 {
			v.errorf("t=%v: create of file %d with nonzero size %d", e.Time, e.File, e.Size)
		}
		if e.Mode != ReadOnly && e.Mode != WriteOnly && e.Mode != ReadWrite {
			v.errorf("t=%v: invalid mode %d", e.Time, uint8(e.Mode))
		}
		if _, dup := v.open[e.OpenID]; dup {
			v.errorf("t=%v: open id %d reused while open", e.Time, e.OpenID)
			return
		}
		v.open[e.OpenID] = &openState{file: e.File, mode: e.Mode}
	case KindClose:
		st, ok := v.open[e.OpenID]
		if !ok {
			v.errorf("t=%v: close of unknown open id %d", e.Time, e.OpenID)
			return
		}
		if e.NewPos < st.pos {
			v.errorf("t=%v: close of open id %d at position %d before last known position %d",
				e.Time, e.OpenID, e.NewPos, st.pos)
		}
		delete(v.open, e.OpenID)
	case KindSeek:
		st, ok := v.open[e.OpenID]
		if !ok {
			v.errorf("t=%v: seek on unknown open id %d", e.Time, e.OpenID)
			return
		}
		if e.OldPos < 0 || e.NewPos < 0 {
			v.errorf("t=%v: seek with negative position (%d -> %d)", e.Time, e.OldPos, e.NewPos)
		}
		if e.OldPos < st.pos {
			v.errorf("t=%v: seek on open id %d from %d before last known position %d",
				e.Time, e.OpenID, e.OldPos, st.pos)
		}
		st.pos = e.NewPos
	case KindUnlink:
		// An unlink may name a file the trace never opened (created before
		// tracing began), so there is nothing more to check.
	case KindTruncate:
		if e.Size < 0 {
			v.errorf("t=%v: truncate of file %d to negative length %d", e.Time, e.File, e.Size)
		}
	case KindExec:
		if e.Size < 0 {
			v.errorf("t=%v: execve of file %d with negative size %d", e.Time, e.File, e.Size)
		}
	}
}

// Finish reports opens that never closed. A live system's trace ends with
// some files open, so unclosed opens are returned separately rather than
// as errors; the caller decides whether they matter.
func (v *Validator) Finish() (unclosed int) {
	return len(v.open)
}

// Errs returns the accumulated validation errors.
func (v *Validator) Errs() []error { return v.errs }

// FirstBad returns the first event that failed a check, verbatim, so a
// corrupt-input report can show the offending record rather than only a
// message about it. It returns nil while everything has validated.
func (v *Validator) FirstBad() *Event { return v.firstBad }

// Stats returns the tally of events seen per kind, valid or not.
func (v *Validator) Stats() Counts { return v.counts }
