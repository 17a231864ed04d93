package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span measures one pipeline stage: wall time from StartSpan to End,
// events in and out, and the process's allocation delta over the stage (runtime.ReadMemStats, so the numbers
// are process-wide — exact for serial stages, an attribution
// approximation when stages overlap).
//
// Event totals are deterministic; wall time and allocation
// deltas are volatile. A nil Span ignores all operations, which is how
// the disabled path stays free.
type Span struct {
	name string

	startWall    time.Time
	startAllocs  uint64
	startMallocs uint64

	eventsIn  atomic.Int64
	eventsOut atomic.Int64

	mu         sync.Mutex
	ended      bool
	wall       time.Duration
	allocBytes int64
	allocs     int64
}

// StartSpan registers and starts a named stage span. Returns nil when
// the registry is nil or disabled. Span names are expected to be unique
// per run; starting the same name twice records two spans.
func (r *Registry) StartSpan(name string) *Span {
	if !r.Enabled() {
		return nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &Span{
		name:         name,
		startWall:    time.Now(),
		startAllocs:  ms.TotalAlloc,
		startMallocs: ms.Mallocs,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// AddOut counts events emitted by the stage.
func (s *Span) AddOut(n int64) {
	if s == nil {
		return
	}
	s.eventsOut.Add(n)
}

// End closes the span, freezing its wall time and allocation deltas.
// Idempotent; spans never ended report their live elapsed time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.ended = true
	s.wall = time.Since(s.startWall)
	s.allocBytes = int64(ms.TotalAlloc - s.startAllocs)
	s.allocs = int64(ms.Mallocs - s.startMallocs)
}

// Name returns the span's stage name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// EventsIn returns the events-consumed total.
func (s *Span) EventsIn() int64 {
	if s == nil {
		return 0
	}
	return s.eventsIn.Load()
}

// EventsOut returns the events-emitted total.
func (s *Span) EventsOut() int64 {
	if s == nil {
		return 0
	}
	return s.eventsOut.Load()
}

// Wall returns the stage's wall time: frozen if ended, live otherwise.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.wall
	}
	return time.Since(s.startWall)
}

// Events returns the span's headline event count: events out if any
// were recorded, else events in. Progress lines and rate readouts use
// it so a stage that only consumes still shows motion.
func (s *Span) Events() int64 {
	if s == nil {
		return 0
	}
	if out := s.eventsOut.Load(); out > 0 {
		return out
	}
	return s.eventsIn.Load()
}

// EventsPerSec returns the headline event rate over the span's wall
// time so far (0 for an instant span).
func (s *Span) EventsPerSec() float64 {
	secs := s.Wall().Seconds()
	if s == nil || secs <= 0 {
		return 0
	}
	return float64(s.Events()) / secs
}

// AllocsPerEvent returns the stage's heap allocations per headline
// event — the per-event efficiency gauge the batched hot paths are
// tuned against. After End it uses the frozen deltas; while the span
// runs it reads live process-wide counters, so for overlapping stages
// the live number is an attribution approximation, like the deltas
// themselves. Returns 0 before any events flow.
func (s *Span) AllocsPerEvent() float64 {
	if s == nil {
		return 0
	}
	events := s.Events()
	if events == 0 {
		return 0
	}
	s.mu.Lock()
	ended, frozen := s.ended, s.allocs
	start := s.startMallocs
	s.mu.Unlock()
	allocs := frozen
	if !ended {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs = int64(ms.Mallocs - start)
	}
	return float64(allocs) / float64(events)
}

// running reports whether the span is still open.
func (s *Span) running() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.ended
}

// allocStats returns the frozen allocation deltas (0, 0 until End).
func (s *Span) allocStats() (bytes, allocs int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allocBytes, s.allocs
}

// Spans returns a snapshot of the registry's spans sorted by name —
// the manifest's deterministic stage order.
func (r *Registry) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]*Span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// lastRunning returns the most recently started span that has not
// ended (nil if none) — what the progress line shows.
func (r *Registry) lastRunning() *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].running() {
			return r.spans[i]
		}
	}
	return nil
}
