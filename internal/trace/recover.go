package trace

import "fmt"

// maxForwardJump is the largest forward time step RecoverSource
// accepts before treating the timestamp as corrupt. The workload's
// daemons fire every few minutes, so a clean trace never goes quiet for
// an hour; a jump that large is a damaged varint, and rewriting it (to
// the previous time) stops one flipped high bit from dragging every
// subsequent clamped timestamp along with it.
const maxForwardJump = Hour

// RepairStats is the error budget of a RecoverSource pass: exactly what
// the repair cost. The accounting identity
//
//	Emitted == Events - Dropped + Synthesized
//
// always holds, so downstream consumers can reconcile their event counts
// against the damage report.
type RepairStats struct {
	// Events is the number of events received from the wrapped source.
	Events int64
	// Emitted is the number of events passed downstream.
	Emitted int64
	// Dropped counts events discarded as unrepairable: invalid kinds,
	// close/seek on handles that never opened, unlink/truncate of files
	// the stream never introduced.
	Dropped int64
	// Synthesized counts events invented to restore invariants: a Close
	// for an orphaned Open whose id is about to be reused.
	Synthesized int64
	// Rewritten counts events with at least one field repaired in place
	// (clamped times, clamped positions, zeroed sizes, defaulted modes).
	Rewritten int64
	// EstBytesLost estimates the transferred bytes that can no longer be
	// attributed: the final positions carried by dropped unknown-handle
	// closes. It is a crude upper bound — the lost open may have covered
	// some of those bytes before the damage.
	EstBytesLost int64
}

// Zero reports whether the pass changed nothing (the clean-stream
// no-op guarantee).
func (s RepairStats) Zero() bool {
	return s.Dropped == 0 && s.Synthesized == 0 && s.Rewritten == 0
}

// String renders the budget for command-line damage reports.
func (s RepairStats) String() string {
	return fmt.Sprintf("%d events: %d dropped, %d synthesized, %d rewritten, ~%d bytes unattributable",
		s.Events, s.Dropped, s.Synthesized, s.Rewritten, s.EstBytesLost)
}

// RecoverSource is a self-healing repair pass over a damaged event
// stream. It enforces every Validator invariant by local repair rather
// than rejection, so downstream analyses always see a well-formed trace:
//
//   - backward time steps are clamped to the previous time, and forward
//     jumps beyond maxForwardJump (a flipped high bit in a time varint)
//     are pulled back to it;
//   - an Open or Create reusing a live open id first gets a synthesized
//     Close for the orphaned open, at its last known position;
//   - Close and Seek on ids that never opened are dropped (their
//     transfers are unattributable — counted in EstBytesLost);
//   - Unlink and Truncate of files the stream never introduced are
//     dropped (damage that invents file ids must not create phantom
//     files in lifetime analyses);
//   - negative sizes and positions are zeroed, invalid modes default to
//     read-only, position regressions are clamped to the last known
//     position, and a Create claiming a nonzero size becomes size 0.
//
// Over an undamaged stream the pass is an exact no-op: every event
// passes through unchanged and Stats().Zero() is true.
//
// What repair cannot recover: the transfers of a dropped record are
// gone, synthesized closes bill an orphan's bytes at the wrong time,
// and a clamped timestamp shifts an event between analysis intervals.
// RepairStats quantifies the first; the loss-sensitivity sweep
// (fsreport -degrade) quantifies the rest.
type RecoverSource struct {
	in      *Cursor
	stats   RepairStats
	open    map[OpenID]*recOpen
	seen    map[FileID]struct{}
	prev    Time
	started bool
	hold    Event // the open that follows a synthesized close
	hasHold bool
}

type recOpen struct {
	file FileID
	pos  int64
}

// NewRecoverSource wraps src in a repair pass.
func NewRecoverSource(src Source) *RecoverSource {
	return &RecoverSource{
		in:   NewCursor(src),
		open: make(map[OpenID]*recOpen),
		seen: make(map[FileID]struct{}),
	}
}

// Stats returns the repair budget so far. It is complete once NextBatch
// has returned io.EOF.
func (r *RecoverSource) Stats() RepairStats { return r.stats }

// NextBatch repairs a batch of events in one call. A synthesized close
// that lands on a full batch is held for the next call, so batch
// boundaries never change what is emitted.
func (r *RecoverSource) NextBatch(buf []Event) (int, error) {
	n := 0
	if n < len(buf) && r.hasHold {
		r.hasHold = false
		r.stats.Emitted++
		buf[n] = r.hold
		n++
	}
	for n < len(buf) {
		e, err := r.in.Next()
		if err != nil {
			// EOF included: opens legitimately outlive a live trace, so
			// no closes are synthesized at end of stream.
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		r.stats.Events++
		e, emit, synth := r.repair(e)
		if !emit {
			r.stats.Dropped++
			continue
		}
		if synth != nil {
			r.stats.Synthesized++
			r.stats.Emitted++
			buf[n] = *synth
			n++
			if n == len(buf) {
				r.hold, r.hasHold = e, true
				return n, nil
			}
		}
		r.stats.Emitted++
		buf[n] = e
		n++
	}
	return n, nil
}

// repair applies the local repairs to one event. It returns the repaired
// event, whether to emit it, and an optional synthesized event to emit
// first.
func (r *RecoverSource) repair(e Event) (_ Event, emit bool, synth *Event) {
	if !e.Kind.Valid() {
		return e, false, nil
	}

	rewritten := false
	if r.started && (e.Time < r.prev || e.Time > r.prev+maxForwardJump) {
		e.Time = r.prev
		rewritten = true
	}

	switch e.Kind {
	case KindCreate, KindOpen:
		if e.Size < 0 || (e.Kind == KindCreate && e.Size != 0) {
			e.Size = 0
			rewritten = true
		}
		if e.Mode != ReadOnly && e.Mode != WriteOnly && e.Mode != ReadWrite {
			e.Mode = ReadOnly
			rewritten = true
		}
		if st, live := r.open[e.OpenID]; live {
			// The id is being reused while open: the original open's
			// close was lost. Close it where we last saw it so the pair
			// stays matched, then let the new open through.
			synth = &Event{
				Time:   e.Time,
				Kind:   KindClose,
				OpenID: e.OpenID,
				NewPos: st.pos,
			}
		}
		r.open[e.OpenID] = &recOpen{file: e.File}
		r.seen[e.File] = struct{}{}
	case KindClose:
		st, ok := r.open[e.OpenID]
		if !ok {
			if e.NewPos > 0 {
				r.stats.EstBytesLost += e.NewPos
			}
			return e, false, nil
		}
		if e.NewPos < st.pos {
			e.NewPos = st.pos
			rewritten = true
		}
		delete(r.open, e.OpenID)
	case KindSeek:
		st, ok := r.open[e.OpenID]
		if !ok {
			return e, false, nil
		}
		if e.OldPos < 0 {
			e.OldPos = 0
			rewritten = true
		}
		if e.NewPos < 0 {
			e.NewPos = 0
			rewritten = true
		}
		if e.OldPos < st.pos {
			e.OldPos = st.pos
			rewritten = true
		}
		st.pos = e.NewPos
	case KindUnlink:
		if _, ok := r.seen[e.File]; !ok {
			return e, false, nil
		}
	case KindTruncate:
		if _, ok := r.seen[e.File]; !ok {
			return e, false, nil
		}
		if e.Size < 0 {
			e.Size = 0
			rewritten = true
		}
	case KindExec:
		if e.Size < 0 {
			e.Size = 0
			rewritten = true
		}
		r.seen[e.File] = struct{}{}
	}

	if rewritten {
		r.stats.Rewritten++
	}
	r.prev = e.Time
	r.started = true
	return e, true, synth
}
