package trace

import "io"

// WindowSource yields the sub-trace of src in [from, to), fixing up the
// dangling references that cutting a live stream creates: seeks and
// closes whose open fell before the window are dropped (their open ids
// are unknown inside the window, exactly as if the tracer had started at
// that moment), and times are rebased so the window starts at zero. It
// holds only the set of opens seen inside the window, not the events.
//
// Windowing is how peak-hour analyses are carved from long traces; the
// paper's measurements distinguish "the busiest part of the work week"
// from whole-trace averages the same way.
func WindowSource(src Source, from, to Time) Source {
	return &windowSource{src: src, from: from, to: to, open: make(map[OpenID]bool)}
}

type windowSource struct {
	src      Source
	from, to Time
	open     map[OpenID]bool
	done     bool // an event at or past to has been seen
}

// NextBatch reads a batch of src into buf and filters it in place.
func (w *windowSource) NextBatch(buf []Event) (int, error) {
	for {
		if w.done {
			return 0, io.EOF
		}
		n, err := w.src.NextBatch(buf)
		if n == 0 {
			return 0, err
		}
		k := 0
		for _, e := range buf[:n] {
			if e.Time < w.from {
				continue
			}
			if e.Time >= w.to {
				// Sources are time-ordered: nothing after this point
				// can fall inside the window.
				w.done = true
				break
			}
			switch e.Kind {
			case KindCreate, KindOpen:
				w.open[e.OpenID] = true
			case KindClose:
				if !w.open[e.OpenID] {
					continue // opened before the window
				}
				delete(w.open, e.OpenID)
			case KindSeek:
				if !w.open[e.OpenID] {
					continue
				}
			}
			e.Time -= w.from
			buf[k] = e
			k++
		}
		if k > 0 {
			return k, nil
		}
	}
}
