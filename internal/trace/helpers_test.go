package trace

import "sort"

// Test-local slice forms of the streaming transforms — each drains the
// source over a SliceSource — and the exact oracles the merge and window
// tests compare the sources against.

// recoverEvents repairs a whole in-memory trace.
func recoverEvents(events []Event) ([]Event, RepairStats) {
	r := NewRecoverSource(NewSliceSource(events))
	out, err := ReadSource(r)
	if err != nil {
		panic(err) // a SliceSource never fails
	}
	return out, r.Stats()
}

// validate checks a whole in-memory trace and returns the errors plus
// the number of opens left unclosed at the end.
func validate(events []Event) (errs []error, unclosed int) {
	v := NewValidator(0)
	for _, e := range events {
		v.Check(e)
	}
	return v.Errs(), v.Finish()
}

// mergeEvents merges in-memory traces through MergeSource.
func mergeEvents(sources ...[]Event) []Event {
	srcs := make([]Source, len(sources))
	for i, events := range sources {
		srcs[i] = NewSliceSource(events)
	}
	out, err := ReadSource(NewMergeSource(srcs...))
	if err != nil {
		panic(err)
	}
	return out
}

// windowEvents cuts an in-memory trace through WindowSource.
func windowEvents(events []Event, from, to Time) []Event {
	out, err := ReadSource(WindowSource(NewSliceSource(events), from, to))
	if err != nil {
		panic(err)
	}
	return out
}

// MergeOracle is the exact output MergeSource must produce: every
// input's RemapIDs-mapped events, taken in source order and stably
// sorted by time. Each input is time-ordered, so the stable sort keeps
// equal times in source order — the merge's (time, source) order. It is
// exported for the package's external conformance tests.
func MergeOracle(sources ...[]Event) []Event {
	var out []Event
	for s, events := range sources {
		for _, e := range events {
			out = append(out, RemapIDs(e, len(sources), s))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// WindowOracle is the output WindowSource must produce, as a direct
// filter loop over the whole trace. It is exported for the package's
// external conformance tests.
func WindowOracle(events []Event, from, to Time) []Event {
	var out []Event
	open := make(map[OpenID]bool)
	for _, e := range events {
		if e.Time < from || e.Time >= to {
			continue
		}
		switch e.Kind {
		case KindCreate, KindOpen:
			open[e.OpenID] = true
		case KindClose:
			if !open[e.OpenID] {
				continue
			}
			delete(open, e.OpenID)
		case KindSeek:
			if !open[e.OpenID] {
				continue
			}
		}
		e.Time -= from
		out = append(out, e)
	}
	return out
}

// ReadOne reads a single event from src: a one-event NextBatch, for
// tests that step a source event by event. It is exported for the
// package's external tests.
func ReadOne(src Source) (Event, error) {
	var one [1]Event
	if _, err := src.NextBatch(one[:]); err != nil {
		return Event{}, err
	}
	return one[0], nil
}
