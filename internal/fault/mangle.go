package fault

import (
	"io"
	"math/rand"

	"bsdtrace/internal/trace"
)

// TraceMangler is the trace-layer sibling of the crash injector: where
// the crash observer measures what a cache loses when the machine dies,
// the mangler measures what the analyses lose when the *trace* does. It
// wraps a trace.Source and deterministically damages the stream the way
// real tracers damage theirs — records dropped on kernel buffer
// overruns, streams truncated by mid-trace reboots, bits flipped by
// decaying media, records duplicated by logger retries, timestamps
// jittered by clock steps — so the recovery layer and the
// loss-sensitivity sweeps have a reproducible adversary.
//
// All damage is drawn from a seeded math/rand stream: the same
// MangleConfig over the same input produces the same damaged output,
// event for event.
type TraceMangler struct {
	in     *trace.Cursor
	rng    *rand.Rand
	cfg    MangleConfig
	stats  MangleStats
	dup    trace.Event // a duplicate held over a full batch
	hasDup bool
}

// MangleConfig sets the per-event damage probabilities. Rates are
// independent probabilities in [0,1]; an event can be both flipped and
// jittered, but a dropped event suffers nothing else.
type MangleConfig struct {
	// Seed fixes the damage pattern.
	Seed int64
	// Drop is the probability an event is silently discarded.
	Drop float64
	// Duplicate is the probability an event is emitted twice.
	Duplicate float64
	// BitFlip is the probability one random bit of one random field is
	// inverted. Flips stay in each field's plausible range (low bits) so
	// the damaged value is wrong-but-credible, the way a flipped varint
	// byte reads — not a position beyond the address space.
	BitFlip float64
	// Jitter is the probability a timestamp is perturbed by a uniform
	// offset in [-JitterMax, +JitterMax].
	Jitter float64
	// JitterMax bounds the perturbation; zero means DefaultJitterMax.
	JitterMax trace.Time
	// TruncateAfter, when positive, ends the stream after that many
	// events, as a reboot mid-trace would.
	TruncateAfter int64
}

// DefaultJitterMax is the timestamp perturbation bound: a few seconds,
// the scale of a clock step, well past the 1985 tracer's 10ms precision.
const DefaultJitterMax = 5 * trace.Second

// MangleStats tallies the damage inflicted.
type MangleStats struct {
	// Seen is the number of events consumed from the wrapped source.
	Seen int64
	// Emitted is the number of events passed downstream (duplicates
	// included, drops excluded).
	Emitted    int64
	Dropped    int64
	Duplicated int64
	Flipped    int64
	Jittered   int64
	// Truncated reports whether the stream was cut short.
	Truncated bool
}

// NewTraceMangler wraps src in a deterministic damage layer.
func NewTraceMangler(src trace.Source, cfg MangleConfig) *TraceMangler {
	if cfg.JitterMax <= 0 {
		cfg.JitterMax = DefaultJitterMax
	}
	return &TraceMangler{
		in:  trace.NewCursor(src),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
}

// Stats returns the damage tally so far; complete once NextBatch returns
// io.EOF.
func (m *TraceMangler) Stats() MangleStats { return m.stats }

// NextBatch fills buf with the next (possibly damaged) events. The RNG is
// drawn once per input event in a fixed order, so batch boundaries never
// change the damage; a duplicate that lands on a full batch is held for
// the next call.
func (m *TraceMangler) NextBatch(buf []trace.Event) (int, error) {
	n := 0
	if n < len(buf) && m.hasDup {
		m.hasDup = false
		m.stats.Emitted++
		buf[n] = m.dup
		n++
	}
	for n < len(buf) {
		e, err := m.next()
		if err != nil {
			if n > 0 {
				return n, nil // the error repeats on the next call
			}
			return 0, err
		}
		m.stats.Seen++
		if m.roll(m.cfg.Drop) {
			m.stats.Dropped++
			continue
		}
		if m.roll(m.cfg.BitFlip) {
			e = m.flip(e)
			m.stats.Flipped++
		}
		if m.roll(m.cfg.Jitter) {
			span := int64(m.cfg.JitterMax)
			e.Time += trace.Time(m.rng.Int63n(2*span+1) - span)
			m.stats.Jittered++
		}
		m.stats.Emitted++
		buf[n] = e
		n++
		if m.roll(m.cfg.Duplicate) {
			m.stats.Duplicated++
			if n == len(buf) {
				m.dup, m.hasDup = e, true
				break
			}
			m.stats.Emitted++
			buf[n] = e
			n++
		}
	}
	return n, nil
}

// next reads the next input event, ending the stream after
// TruncateAfter events as a reboot mid-trace would.
func (m *TraceMangler) next() (trace.Event, error) {
	if m.cfg.TruncateAfter > 0 && m.stats.Seen >= m.cfg.TruncateAfter {
		m.stats.Truncated = true
		return trace.Event{}, io.EOF
	}
	return m.in.Next()
}

func (m *TraceMangler) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return m.rng.Float64() < p
}

// flip inverts one random low bit of one random field. Low bits keep the
// damage in-range: a flipped position stays a position the downstream
// block mapper can represent, a flipped time moves minutes rather than
// centuries, while kind and mode flips still exercise the
// invalid-discriminator paths.
func (m *TraceMangler) flip(e trace.Event) trace.Event {
	switch m.rng.Intn(8) {
	case 0:
		e.Time ^= trace.Time(1) << m.rng.Intn(24)
	case 1:
		e.Kind ^= trace.Kind(1) << m.rng.Intn(8)
	case 2:
		e.OpenID ^= trace.OpenID(1) << m.rng.Intn(24)
	case 3:
		e.File ^= trace.FileID(1) << m.rng.Intn(24)
	case 4:
		e.User ^= trace.UserID(1) << m.rng.Intn(16)
	case 5:
		e.Mode ^= trace.Mode(1) << m.rng.Intn(8)
	case 6:
		e.Size ^= int64(1) << m.rng.Intn(24)
	case 7:
		if m.rng.Intn(2) == 0 {
			e.OldPos ^= int64(1) << m.rng.Intn(24)
		} else {
			e.NewPos ^= int64(1) << m.rng.Intn(24)
		}
	}
	return e
}
